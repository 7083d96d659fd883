// Flight recorder: the query path's one instrumentation event stream.
//
// Aggregate metrics answer "how is the system doing"; they cannot answer
// the operator's first question after a deadline miss, a drift alert, or
// a crash: "what exactly did THIS query do?" The flight recorder closes
// that gap: every instrumented layer (FrEngine, PaEngine, PlaneSweep,
// BufferPool, Wal, ResilientExecutor, ThreadPool, PdrMonitor) emits
// compact binary micro-events into lock-free per-thread ring buffers.
// Two consumers read the rings: on an incident, Dump() snapshots them
// into a JSONL dump plus a Chrome trace-event file (Perfetto-loadable),
// keyed by query id; and Drain() hands a streaming consumer (pdr_tool
// --trace) each event once, in the same dump format.
//
// Cost model:
//   * disabled (the default): Record() is one relaxed atomic load and a
//     predicted branch — instrumentation sites stay in hot paths.
//   * enabled: one ObsClock read plus six atomic stores into the calling
//     thread's own ring (~tens of ns). No locks, no allocation
//     after the ring is built; producers never contend with each other.
//   * compiled out (PDR_OBS=OFF): every site folds away entirely.
//
// Ring semantics: each thread owns one single-producer ring of
// `ring_capacity` events (a power of two). The head counter grows forever;
// a full ring overwrites its oldest slot, so the recorder always holds the
// most recent window of activity — exactly what an incident dump needs.
// Readers run concurrently with producers: events are stored as four
// relaxed-atomic words published by a release store of the head, and the
// producer announces each slot it is about to overwrite before touching
// it, so a reader that re-checks the announcement after copying discards
// any slot the producer may have overwritten mid-copy (seqlock-style):
// snapshots and drains contain only intact events.
//
// Query attribution: a QueryScope stamps the calling thread's events with
// a query id; ThreadPool propagates the submitting thread's id to each
// task it runs, so one query's fan-out is one id across every thread.
//
// Dump triggers: deadline miss (ResilientExecutor), drift alert
// (MonitorReporter), CrashError (constructor hook), SLO burn-rate alert
// (SloMonitor), or an explicit Dump() call (pdr_tool explain --dump). Each
// trigger kind is armed independently via Options::triggers, dumps are
// capped by Options::max_dumps, and nothing is written unless
// Options::dump_dir is set.

#ifndef PDR_OBS_FLIGHT_RECORDER_H_
#define PDR_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "pdr/obs/obs.h"

namespace pdr {

/// Micro-event vocabulary. Two int64 payloads per event; their meaning is
/// listed per kind here and decoded to named args in dumps (DESIGN.md §12
/// has the full field reference).
enum class FrEvent : uint8_t {
  kQueryBegin = 1,  ///< a = q_t, b = bit pattern of rho
  kQueryEnd,        ///< a = objects fetched, b = dense rects
  kFilter,          ///< a = accepted<<32 | rejected, b = candidates
  kCellBegin,       ///< a = col<<32 | row
  kCellEnd,         ///< a = col<<32 | row, b = objects<<32 | rects
  kSweep,           ///< a = x_strips<<32 | y_sweeps, b = y_strips<<32 | rects
  kBnbPrune,        ///< a = macro cell index, b = boxes pruned in the cell
  kPageFault,       ///< a = page id, b = 1 physical miss / 0 logical
  kWalAppend,       ///< a = lsn, b = bytes appended
  kTierEnter,       ///< a = AnswerTier entered, b = DowngradeReason
  kCancelled,       ///< a = AnswerTier cancelled, b = elapsed us
  kShed,            ///< a = tick shed at admission control
  kTaskRun,         ///< a = pool task sequence number
  kCheckpoint,      ///< a = tick, b = pages logged
  kFftField,        ///< a = q_t the density field was built for, b = grid m
  kCorruption,      ///< a = page id (-1 = checkpoint blob), b = 1 repaired
  kRangeQuery,      ///< a = objects returned, b = logical<<32 | physical
  kTickBegin,       ///< a = now, b = q_t
  kTickEnd,         ///< a = AnswerTier, b = rects in the current answer
};

/// Stable lower-case name ("query_begin", "page_fault", ...).
const char* FrEventName(FrEvent kind);

/// One decoded ring event.
struct MicroEvent {
  int64_t ts_ns = 0;
  uint32_t query_id = 0;
  uint16_t tid = 0;  ///< small per-ring thread id
  FrEvent kind = FrEvent::kQueryBegin;
  int64_t a = 0;
  int64_t b = 0;
};

class FlightRecorder {
 public:
  /// Incident kinds that may auto-trigger a dump (Options::triggers mask).
  enum Trigger : uint32_t {
    kOnDeadlineMiss = 1u << 0,
    kOnDrift = 1u << 1,
    kOnCrash = 1u << 2,
    kOnSloAlert = 1u << 3,
    kOnCorruption = 1u << 4,
    kAllTriggers = 0x1Fu,
  };

  struct Options {
    /// Events retained per thread ring (rounded up to a power of two).
    size_t ring_capacity = 1 << 13;
    /// Directory for dump files; empty disables file dumps (Snapshot()
    /// still works for in-process consumers).
    std::string dump_dir;
    /// Bitwise-or of Trigger values that auto-dump.
    uint32_t triggers = 0;
    /// Cap on files written over the recorder's lifetime, so a trigger
    /// storm (every tick missing its deadline) cannot fill the disk.
    int max_dumps = 8;
  };

  /// The process-wide recorder (never destroyed).
  static FlightRecorder& Global();

  /// Replaces the configuration and drops all recorded events (rings are
  /// re-registered lazily at the new capacity). Does not change enabled().
  /// Safe while other threads record, snapshot or drain: a dropped ring
  /// is retired, and freed only once its producer and readers let go.
  void Configure(const Options& options);
  Options options() const;

  /// Master switch. Off by default; the environment variable
  /// PDR_FLIGHT_RECORDER=1 turns it on at first use (benches, tools).
  static void SetEnabled(bool on);
  static bool Enabled() {
#if PDR_OBS_COMPILED
    return enabled_.load(std::memory_order_relaxed);
#else
    return false;
#endif
  }

  /// Records one micro-event on the calling thread's ring. Safe from any
  /// thread at any time; a single load+branch when disabled.
  static void Record(FrEvent kind, int64_t a = 0, int64_t b = 0) {
    if (!Enabled()) return;
    Global().RecordImpl(kind, a, b);
  }

  /// Packs two non-negative 32-bit counts into one payload word.
  static int64_t Pack(int64_t hi, int64_t lo) {
    return (hi << 32) | (lo & 0xffffffffll);
  }
  static int64_t PackHi(int64_t packed) { return packed >> 32; }
  static int64_t PackLo(int64_t packed) { return packed & 0xffffffffll; }

  // --- query attribution ---------------------------------------------------

  /// Allocates a fresh process-unique query id (never 0).
  static uint32_t NextQueryId();

  /// The query id events on this thread are stamped with (0 = none).
  static uint32_t CurrentQueryId();

  /// RAII scope stamping this thread's events with `query_id`. Nests;
  /// restores the previous id on destruction. ThreadPool installs one per
  /// task with the submitting thread's id.
  class QueryScope {
   public:
    explicit QueryScope(uint32_t query_id);
    ~QueryScope();
    QueryScope(const QueryScope&) = delete;
    QueryScope& operator=(const QueryScope&) = delete;

   private:
    uint32_t prev_;
  };

  // --- snapshot and dumps --------------------------------------------------

  /// Copies every ring's intact events, merged and sorted by timestamp
  /// (ties broken by thread id). Runs concurrently with producers.
  std::vector<MicroEvent> Snapshot() const;

  struct DrainResult {
    std::vector<MicroEvent> events;  ///< sorted like Snapshot()
    int64_t overwritten = 0;  ///< lost to ring wrap before they were read
  };

  /// The streaming read: the intact events recorded since the previous
  /// Drain() (each ring keeps a consumer cursor), merged and sorted like
  /// Snapshot(). Events a ring overwrote before they could be read are
  /// counted, not returned. Runs concurrently with producers; drains
  /// serialize. Leaves the rings and the dump counters alone, unlike
  /// Reset() and Configure().
  DrainResult Drain();

  struct DumpInfo {
    bool ok = false;
    std::string jsonl_path;
    std::string trace_path;
    size_t events = 0;
    int64_t jsonl_bytes = 0;
    int64_t trace_bytes = 0;
  };

  /// Snapshots the rings and writes `<dump_dir>/fr_<seq>_<reason>.jsonl`
  /// plus `...trace.json` (Chrome trace-event format; load either file in
  /// Perfetto). `query_id` (when nonzero) is recorded in the dump header
  /// and the file name. Returns ok=false when dump_dir is unset, the
  /// max_dumps cap is reached, or a file cannot be written.
  DumpInfo Dump(const std::string& reason, uint32_t query_id = 0);

  /// Dump() gated on `trigger` being armed in options().triggers. The
  /// incident paths (executor, reporter, CrashError) call this.
  void TriggerDump(Trigger trigger, const std::string& reason,
                   uint32_t query_id = 0);

  /// Invoked after every successful Dump() with the dump's file info and
  /// reason — the seam the workload recorder uses to turn incident dumps
  /// into self-contained repro bundles. One hook at a time; nullptr clears.
  /// The hook runs outside the recorder's lock, on the dumping thread, and
  /// must not throw (exceptions are swallowed by the caller's wrapper).
  using DumpHook = std::function<void(const DumpInfo&, const std::string&)>;
  void SetDumpHook(DumpHook hook);

  int64_t dumps_written() const {
    return dumps_.load(std::memory_order_relaxed);
  }

  /// Drops all recorded events and the dump counter (tests). Retires
  /// rings like Configure().
  void Reset();

  // --- serialization (exposed for tests and in-process consumers) ----------

  /// One `{"type":"fr_event",...}` JSON object (no newline).
  static std::string EventJson(const MicroEvent& event);

  /// Full JSONL dump: one header line, then one line per event.
  static void WriteJsonl(std::FILE* out, const std::vector<MicroEvent>& events,
                         const std::string& reason, uint32_t query_id);

  /// Chrome trace-event JSON: query/cell/tick begin-end pairs become B/E
  /// duration events, everything else thread-scoped instants.
  static void WriteChromeTrace(std::FILE* out,
                               const std::vector<MicroEvent>& events,
                               const std::string& reason, uint32_t query_id);

 private:
  FlightRecorder();
  void RecordImpl(FrEvent kind, int64_t a, int64_t b);

#if PDR_OBS_COMPILED
  static std::atomic<bool> enabled_;
#endif
  std::atomic<int64_t> dumps_{0};

  struct State;
  State* state_;  // leaked with the singleton
};

}  // namespace pdr

#endif  // PDR_OBS_FLIGHT_RECORDER_H_
