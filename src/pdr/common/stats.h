// Lightweight measurement utilities: wall-clock timers, running statistics,
// and the cost-accounting record shared by the query engines.
//
// The paper reports query cost as CPU time plus a simulated I/O charge
// (10 ms per random page read, Section 7); CostBreakdown carries both so
// benches can report each component and their sum exactly as Figure 10 does.

#ifndef PDR_COMMON_STATS_H_
#define PDR_COMMON_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace pdr {

/// Accumulates count/mean/min/max/variance of a stream of samples
/// (Welford's algorithm).
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

  std::string ToString() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Simulated I/O counters, maintained by the storage layer's BufferPool.
/// `physical_reads` drive the paper's cost model; `logical_reads` (all
/// fetches) measure access locality; `writebacks` count dirty evictions.
/// Lives here (not in pdr/storage) so the cost record below, the query
/// engines, and the obs layer all read one accounting type.
struct IoStats {
  int64_t logical_reads = 0;
  int64_t physical_reads = 0;
  int64_t writebacks = 0;

  double ReadCostMs(double ms_per_read) const {
    return static_cast<double>(physical_reads) * ms_per_read;
  }
  IoStats operator-(const IoStats& o) const {
    return {logical_reads - o.logical_reads,
            physical_reads - o.physical_reads, writebacks - o.writebacks};
  }
  IoStats& operator+=(const IoStats& o) {
    logical_reads += o.logical_reads;
    physical_reads += o.physical_reads;
    writebacks += o.writebacks;
    return *this;
  }
};

/// Cost of evaluating one query: measured CPU time plus the simulated I/O
/// charge of the storage layer. Carries the full IoStats delta of the
/// query so logical reads and writebacks survive into reports, not just
/// the charged physical reads.
struct CostBreakdown {
  double cpu_ms = 0.0;
  IoStats io;
  double io_ms = 0.0;

  /// Physical page reads — the quantity the paper charges io_ms for.
  int64_t io_reads() const { return io.physical_reads; }

  double TotalMs() const { return cpu_ms + io_ms; }

  CostBreakdown& operator+=(const CostBreakdown& o) {
    cpu_ms += o.cpu_ms;
    io += o.io;
    io_ms += o.io_ms;
    return *this;
  }
};

}  // namespace pdr

#endif  // PDR_COMMON_STATS_H_
