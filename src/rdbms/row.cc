#include "rdbms/row.h"

#include <cstdint>
#include <cstring>

#include "common/str_util.h"

namespace r3 {
namespace rdbms {

namespace {

void AppendFixedInt(std::string* out, uint64_t v, size_t bytes) {
  // Little-endian fixed-width.
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t ReadFixedInt(const char* p, size_t bytes) {
  uint64_t v = 0;
  for (size_t i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

int64_t SignExtend(uint64_t v, size_t bytes) {
  if (bytes == 8) return static_cast<int64_t>(v);
  uint64_t sign_bit = 1ULL << (8 * bytes - 1);
  if (v & sign_bit) {
    v |= ~((sign_bit << 1) - 1);
  }
  return static_cast<int64_t>(v);
}

}  // namespace

Status SerializeRow(const Schema& schema, const Row& row, std::string* out) {
  if (row.size() != schema.NumColumns()) {
    return Status::Internal(
        str::Format("row has %zu values, schema has %zu columns", row.size(),
                    schema.NumColumns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = schema.column(i);
    const Value& v = row[i];
    if (v.is_null()) {
      out->push_back(1);
      continue;
    }
    out->push_back(0);
    switch (col.type) {
      case DataType::kBool:
        out->push_back(v.bool_value() ? 1 : 0);
        break;
      case DataType::kInt64:
        if (col.length == 4 &&
            (v.int_value() < INT32_MIN || v.int_value() > INT32_MAX)) {
          return Status::InvalidArgument(str::Format(
              "value %lld out of range for INTEGER column %s",
              static_cast<long long>(v.int_value()), col.name.c_str()));
        }
        AppendFixedInt(out, static_cast<uint64_t>(v.int_value()),
                       col.length == 4 ? 4 : 8);
        break;
      case DataType::kDouble: {
        double d = v.double_value();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        AppendFixedInt(out, bits, 8);
        break;
      }
      case DataType::kDecimal:
        AppendFixedInt(out, static_cast<uint64_t>(v.decimal_cents()), 8);
        break;
      case DataType::kDate:
        AppendFixedInt(out, static_cast<uint32_t>(v.date_value()), 4);
        break;
      case DataType::kString: {
        const std::string& s = v.string_value();
        if (col.length > 0) {
          out->append(str::PadTo(s, col.length));
        } else {
          if (s.size() > 0xffff) {
            return Status::OutOfRange("VARCHAR value exceeds 64 KiB");
          }
          AppendFixedInt(out, s.size(), 2);
          out->append(s);
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status DecodeIntoWide(const Schema& schema, std::string_view data,
                      const ColumnMask& needed, size_t offset,
                      size_t wide_width, Row* wide) {
  const size_t ncols = schema.NumColumns();
  if (offset + ncols > wide_width) {
    return Status::Internal(
        str::Format("table columns [%zu, %zu) exceed a wide row of %zu",
                    offset, offset + ncols, wide_width));
  }
  wide->resize(wide_width);
  Value* out = wide->data();
  auto null_range = [out](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      if (!out[i].is_null()) out[i].SetNull(DataType::kInt64);
    }
  };
  null_range(0, offset);
  null_range(offset + ncols, wide_width);
  out += offset;
  size_t pos = 0;
  auto need = [&](size_t n) -> bool { return n <= data.size() - pos; };
  for (size_t i = 0; i < ncols; ++i) {
    const Column& col = schema.column(i);
    Value& v = out[i];
    if (!need(1)) return Status::Internal("row truncated (null byte)");
    if (data[pos++] != 0) {
      v.SetNull(col.type);
      continue;
    }
    const bool want = needed.empty() || needed[i];
    const char* p = data.data() + pos;
    switch (col.type) {
      case DataType::kBool:
        if (!need(1)) return Status::Internal("row truncated (bool)");
        if (want) v.SetInt(DataType::kBool, *p != 0 ? 1 : 0);
        pos += 1;
        break;
      case DataType::kInt64: {
        const size_t w = col.length == 4 ? 4 : 8;
        if (!need(w)) return Status::Internal("row truncated (int)");
        if (want) v.SetInt(DataType::kInt64, SignExtend(ReadFixedInt(p, w), w));
        pos += w;
        break;
      }
      case DataType::kDouble: {
        if (!need(8)) return Status::Internal("row truncated (double)");
        if (want) {
          uint64_t bits = ReadFixedInt(p, 8);
          double d;
          std::memcpy(&d, &bits, 8);
          v.SetDbl(d);
        }
        pos += 8;
        break;
      }
      case DataType::kDecimal:
        if (!need(8)) return Status::Internal("row truncated (decimal)");
        if (want) {
          v.SetInt(DataType::kDecimal,
                   static_cast<int64_t>(ReadFixedInt(p, 8)));
        }
        pos += 8;
        break;
      case DataType::kDate:
        if (!need(4)) return Status::Internal("row truncated (date)");
        if (want) v.SetInt(DataType::kDate, SignExtend(ReadFixedInt(p, 4), 4));
        pos += 4;
        break;
      case DataType::kString: {
        size_t len = col.length;
        if (len > 0) {
          if (!need(len)) return Status::Internal("row truncated (char)");
        } else {
          if (!need(2)) return Status::Internal("row truncated (varlen)");
          len = ReadFixedInt(p, 2);
          pos += 2;
          p += 2;
          if (!need(len)) return Status::Internal("row truncated (varchar)");
        }
        if (want) {
          std::string_view s(p, len);
          // CHAR(n) is blank-padded on write and trimmed on read.
          if (col.length > 0) {
            while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
          }
          v.SetStr(s);
        }
        pos += len;
        break;
      }
    }
    if (!want) v.SetNull(col.type);
  }
  if (pos != data.size()) {
    return Status::Internal("trailing bytes after row");
  }
  return Status::OK();
}

Status DeserializeRow(const Schema& schema, std::string_view data, Row* row) {
  return DecodeIntoWide(schema, data, ColumnMask(), 0, schema.NumColumns(),
                        row);
}

size_t SerializedRowSize(const Schema& schema, const Row& row) {
  size_t n = 0;
  for (size_t i = 0; i < row.size() && i < schema.NumColumns(); ++i) {
    n += 1;  // null byte
    if (!row[i].is_null()) n += schema.column(i).StoredSize(row[i]);
  }
  return n;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace rdbms
}  // namespace r3
