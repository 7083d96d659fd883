// Exporters for the obs layer's metrics: a JSONL (one JSON object per
// line) writer, a human-readable dump, and the Prometheus text format.
// (Flight-recorder events serialize through FlightRecorder::WriteJsonl.)
//
// JSONL schema (stable; consumed by scripts and the bench tooling):
//
//   {"type":"counter","name":...,"value":N}
//   {"type":"gauge","name":...,"value":F}
//   {"type":"histogram","name":...,"count":N,"mean":F,"min":F,"max":F,
//    "stddev":F,"buckets":[{"ge":F,"count":N},...]}   (nonzero buckets)
//   {"type":"series","bench":...,"values":{col:F,...}} (bench_util rows)

#ifndef PDR_OBS_EXPORT_H_
#define PDR_OBS_EXPORT_H_

#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

#include "pdr/obs/registry.h"

namespace pdr {

/// `s` with JSON string escapes applied (no surrounding quotes).
std::string JsonEscape(std::string_view s);

/// Thread-safe line-oriented writer over a stdio FILE.
class JsonlWriter {
 public:
  /// Opens `path` for appending ("-" means stdout). Check ok().
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  int64_t lines_written() const { return lines_; }

  /// Appends one line (newline added). No-op when !ok().
  void WriteLine(std::string_view json);
  void Flush();

 private:
  std::mutex mu_;
  std::string path_;
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  int64_t lines_ = 0;
};

/// Writes one JSONL line per metric in `snap`.
void WriteMetricsJsonl(JsonlWriter* writer,
                       const MetricsRegistry::Snapshot& snap);

/// Human-readable metrics dump (sorted, aligned; histograms show summary
/// stats and their nonzero buckets).
void DumpMetrics(std::FILE* out, const MetricsRegistry::Snapshot& snap);

/// Prometheus text exposition (version 0.0.4) of `snap`. Registry names
/// are dots (`pdr.monitor.ticks`), optionally carrying one WithLabel()
/// block (`...{reason="deadline"}`); here the base is sanitized to the
/// Prometheus charset [a-zA-Z0-9_:] and the label block re-emitted with
/// `"`/`\`/newline escaped. Histograms export as summaries (quantile
/// series + _sum/_count). One # TYPE line per metric family.
void WriteMetricsPrometheus(std::FILE* out,
                            const MetricsRegistry::Snapshot& snap);

}  // namespace pdr

#endif  // PDR_OBS_EXPORT_H_
