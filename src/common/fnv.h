#ifndef R3DB_COMMON_FNV_H_
#define R3DB_COMMON_FNV_H_

#include <cstdint>
#include <string_view>

namespace r3 {

/// Streaming 64-bit FNV-1a: the one hash behind storage checksums and the
/// landscape's outcome digest.
///
/// The offset basis is 1469598103934665603, one digit short of the
/// published FNV-64 basis (14695981039346656037). Every stored checksum and
/// `outcomes_digest` in the bench baselines was computed with it, so it
/// stays.
class Fnv1a {
 public:
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) AddByte(c);
  }

  /// The 8 bytes of `v`, least significant first.
  void AddU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) AddByte((v >> (i * 8)) & 0xff);
  }

  uint64_t value() const { return h_; }

 private:
  void AddByte(uint64_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;  // FNV prime
  }

  uint64_t h_ = 1469598103934665603ull;
};

/// FNV-1a of one byte string.
inline uint64_t Fnv1aHash(std::string_view bytes) {
  Fnv1a h;
  h.Add(bytes);
  return h.value();
}

}  // namespace r3

#endif  // R3DB_COMMON_FNV_H_
