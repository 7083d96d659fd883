#include "pdr/obs/export.h"

#include <cinttypes>
#include <cstring>

namespace pdr {
namespace {

void AppendDouble(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  // JSON has no inf/nan literals; clamp to null.
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr) {
    out->append("null");
  } else {
    out->append(buf);
  }
}

void AppendInt(int64_t v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  out->append(JsonEscape(s));
  out->push_back('"');
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

JsonlWriter::JsonlWriter(const std::string& path) : path_(path) {
  if (path == "-") {
    file_ = stdout;
  } else {
    file_ = std::fopen(path.c_str(), "a");
    owns_file_ = true;
  }
}

JsonlWriter::~JsonlWriter() {
  if (file_ != nullptr) {
    std::fflush(file_);
    if (owns_file_) std::fclose(file_);
  }
}

void JsonlWriter::WriteLine(std::string_view json) {
  if (file_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(json.data(), 1, json.size(), file_);
  std::fputc('\n', file_);
  ++lines_;
}

void JsonlWriter::Flush() {
  if (file_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::fflush(file_);
}

void WriteMetricsJsonl(JsonlWriter* writer,
                       const MetricsRegistry::Snapshot& snap) {
  if (writer == nullptr || !writer->ok()) return;
  std::string line;
  for (const auto& c : snap.counters) {
    line = "{\"type\":\"counter\",\"name\":";
    AppendQuoted(c.name, &line);
    line.append(",\"value\":");
    AppendInt(c.value, &line);
    line.push_back('}');
    writer->WriteLine(line);
  }
  for (const auto& g : snap.gauges) {
    line = "{\"type\":\"gauge\",\"name\":";
    AppendQuoted(g.name, &line);
    line.append(",\"value\":");
    AppendDouble(g.value, &line);
    line.push_back('}');
    writer->WriteLine(line);
  }
  for (const auto& h : snap.histograms) {
    line = "{\"type\":\"histogram\",\"name\":";
    AppendQuoted(h.name, &line);
    line.append(",\"count\":");
    AppendInt(h.stat.count(), &line);
    line.append(",\"mean\":");
    AppendDouble(h.stat.mean(), &line);
    line.append(",\"min\":");
    AppendDouble(h.stat.min(), &line);
    line.append(",\"max\":");
    AppendDouble(h.stat.max(), &line);
    line.append(",\"stddev\":");
    AppendDouble(h.stat.stddev(), &line);
    line.append(",\"p50\":");
    AppendDouble(h.Percentile(50), &line);
    line.append(",\"p95\":");
    AppendDouble(h.Percentile(95), &line);
    line.append(",\"p99\":");
    AppendDouble(h.Percentile(99), &line);
    line.append(",\"buckets\":[");
    bool first = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      if (!first) line.push_back(',');
      first = false;
      line.append("{\"ge\":");
      AppendDouble(Histogram::BucketLowerBound(i), &line);
      line.append(",\"count\":");
      AppendInt(h.buckets[i], &line);
      line.push_back('}');
    }
    line.append("]}");
    writer->WriteLine(line);
  }
  writer->Flush();
}

void DumpMetrics(std::FILE* out, const MetricsRegistry::Snapshot& snap) {
  if (!snap.counters.empty()) {
    std::fprintf(out, "-- counters --\n");
    for (const auto& c : snap.counters) {
      std::fprintf(out, "  %-44s %14" PRId64 "\n", c.name.c_str(), c.value);
    }
  }
  if (!snap.gauges.empty()) {
    std::fprintf(out, "-- gauges --\n");
    for (const auto& g : snap.gauges) {
      std::fprintf(out, "  %-44s %14.6g\n", g.name.c_str(), g.value);
    }
  }
  if (!snap.histograms.empty()) {
    std::fprintf(out, "-- histograms --\n");
    for (const auto& h : snap.histograms) {
      std::fprintf(out,
                   "  %-44s n=%" PRId64 " mean=%.4g min=%.4g max=%.4g "
                   "sd=%.4g p50=%.4g p95=%.4g p99=%.4g\n",
                   h.name.c_str(), h.stat.count(), h.stat.mean(),
                   h.stat.min(), h.stat.max(), h.stat.stddev(),
                   h.Percentile(50), h.Percentile(95), h.Percentile(99));
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        if (h.buckets[i] == 0) continue;
        std::fprintf(out, "    >= %-12.4g %10" PRId64 "\n",
                     Histogram::BucketLowerBound(i), h.buckets[i]);
      }
    }
  }
  if (snap.Empty()) std::fprintf(out, "(no metrics registered)\n");
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:], label names the same minus
// the colon; everything else (the registry's dots, mostly) becomes '_'.
std::string PromName(std::string_view raw, bool allow_colon) {
  std::string out;
  out.reserve(raw.size() + 1);
  for (const char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' ||
                    (allow_colon && c == ':');
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string PromEscape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out.append("\\n");
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Splits a registry name — `base` or `base{key="value",...}` as WithLabel
// writes it — into a sanitized base and a re-encoded label list (no
// braces; empty when unlabeled). Backslash escapes in stored values are
// undone and re-applied so the output escaping is canonical.
void SplitPromName(const std::string& name, std::string* base,
                   std::string* labels) {
  labels->clear();
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = PromName(name, /*allow_colon=*/true);
    return;
  }
  *base = PromName(std::string_view(name).substr(0, brace),
                   /*allow_colon=*/true);
  size_t i = brace + 1;
  const size_t end = name.size() - 1;
  while (i < end) {
    if (name[i] == ',' || name[i] == ' ') {
      ++i;
      continue;
    }
    const size_t eq = name.find('=', i);
    if (eq == std::string::npos || eq + 1 >= end || name[eq + 1] != '"') {
      break;  // malformed block: keep what parsed so far
    }
    const std::string key =
        PromName(std::string_view(name).substr(i, eq - i),
                 /*allow_colon=*/false);
    std::string value;
    size_t j = eq + 2;
    while (j < end && name[j] != '"') {
      if (name[j] == '\\' && j + 1 < end) ++j;  // stored escape
      value.push_back(name[j]);
      ++j;
    }
    if (!labels->empty()) labels->push_back(',');
    labels->append(key);
    labels->append("=\"");
    labels->append(PromEscape(value));
    labels->push_back('"');
    i = j + 1;
  }
}

void PromSeries(std::FILE* out, const std::string& base,
                const std::string& labels, const char* extra_label,
                const std::string& value) {
  if (labels.empty() && extra_label == nullptr) {
    std::fprintf(out, "%s %s\n", base.c_str(), value.c_str());
    return;
  }
  std::fprintf(out, "%s{%s%s%s} %s\n", base.c_str(), labels.c_str(),
               !labels.empty() && extra_label != nullptr ? "," : "",
               extra_label != nullptr ? extra_label : "", value.c_str());
}

std::string PromDouble(double v) {
  // Prometheus accepts +Inf/-Inf/NaN spellings, unlike JSON.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  if (std::strstr(buf, "inf") != nullptr) {
    return buf[0] == '-' ? "-Inf" : "+Inf";
  }
  if (std::strstr(buf, "nan") != nullptr) return "NaN";
  return buf;
}

}  // namespace

void WriteMetricsPrometheus(std::FILE* out,
                            const MetricsRegistry::Snapshot& snap) {
  // The snapshot is sorted by full registry name, so labeled series of one
  // family are adjacent: emit the # TYPE header when the base changes.
  std::string base, labels, last_base;
  const auto TypeLine = [&](const char* type) {
    if (base == last_base) return;
    std::fprintf(out, "# TYPE %s %s\n", base.c_str(), type);
    last_base = base;
  };
  for (const auto& c : snap.counters) {
    SplitPromName(c.name, &base, &labels);
    TypeLine("counter");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, c.value);
    PromSeries(out, base, labels, nullptr, buf);
  }
  for (const auto& g : snap.gauges) {
    SplitPromName(g.name, &base, &labels);
    TypeLine("gauge");
    PromSeries(out, base, labels, nullptr, PromDouble(g.value));
  }
  for (const auto& h : snap.histograms) {
    SplitPromName(h.name, &base, &labels);
    TypeLine("summary");
    PromSeries(out, base, labels, "quantile=\"0.5\"",
               PromDouble(h.Percentile(50)));
    PromSeries(out, base, labels, "quantile=\"0.95\"",
               PromDouble(h.Percentile(95)));
    PromSeries(out, base, labels, "quantile=\"0.99\"",
               PromDouble(h.Percentile(99)));
    PromSeries(out, base + "_sum", labels, nullptr,
               PromDouble(h.stat.mean() * static_cast<double>(h.stat.count())));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, h.stat.count());
    PromSeries(out, base + "_count", labels, nullptr, buf);
  }
}

}  // namespace pdr
