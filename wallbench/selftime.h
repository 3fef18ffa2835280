#ifndef WALLBENCH_SELFTIME_H_
#define WALLBENCH_SELFTIME_H_

// Wall-clock self time per layer, computed from the spans the repo's public
// Tracer records. The Tracer keeps its events private and only exports them
// as Chrome trace_event JSON, so this file reads that export back.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace wallbench {

/// One finished span: wall start and duration in whole microseconds, both
/// truncated by the Tracer (so an end is the truncated end instant).
struct Span {
  std::string category;
  std::string name;
  int64_t start_us = 0;
  int64_t dur_us = 0;
};

struct SelfTime {
  /// Wall time during which this span was the most recently begun of the
  /// spans still open. For properly nested spans this is the duration minus
  /// the children's durations; spans that overlap without nesting (an
  /// operator reopened while its sibling is still open) share time the same
  /// way, so the self times of all spans always add up to the covered time.
  int64_t self_us = 0;
  /// Span boundaries adjacent to the time booked to this span. Each
  /// boundary is truncated by less than 1 µs, so |error of self_us| is below
  /// `boundaries` µs.
  int64_t boundaries = 0;
};

/// Self times of `spans`, index-aligned. `spans` must be in the order the
/// Tracer records them: by end time, a parent after its children.
std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans);

/// Reads the complete ('X') events of a Tracer::ExportChromeJson() document
/// exported with wall time on (TraceOptions::include_wall_time), in export
/// order. Instant events are only counted.
r3::Status ParseChromeTrace(const std::string& json, std::vector<Span>* spans,
                            int64_t* instants, int64_t* dropped);

/// The layer a span's self time is booked to: "app", "interface", "txn",
/// "sap" and "bench" by category; "sql.<phase>" for the SQL phases;
/// "exec.<family>" for operators (scan, index, join, agg, project, other);
/// "other" for anything else.
std::string LayerOf(const Span& span);

/// Per-layer sums over many spans.
struct LayerTotal {
  int64_t self_us = 0;
  int64_t spans = 0;
  int64_t boundaries = 0;
};

/// Adds the spans' self times to `totals`, keyed by LayerOf().
void AccumulateLayers(const std::vector<Span>& spans,
                      std::map<std::string, LayerTotal>* totals);

}  // namespace wallbench

#endif  // WALLBENCH_SELFTIME_H_
