// Deterministic crash-fault injection for the durability layer.
//
// Every write/fsync boundary in the storage files (WAL appends, WAL
// fsyncs, data-page writes, data fsyncs, checkpoint-file publication) is a
// numbered *fault point*: before executing, the operation asks the
// injector whether to proceed. A test arms the injector to crash at the
// k-th point in one of three modes:
//
//   * kClean         — the operation does not happen at all (power lost
//                      just before the syscall).
//   * kTornWrite     — a deterministic prefix of the byte range is written
//                      and the rest lost (interrupted pwrite).
//   * kTruncatedTail — for appends: the bytes are written, then the file
//                      tail is chopped mid-record (filesystem dropping
//                      not-yet-durable tail data). Non-append writes fall
//                      back to kTornWrite, which is the physical
//                      equivalent for in-place updates.
//
// The "crash" is a CrashError exception thrown by the storage primitive;
// the store object that observes it poisons itself (no further file
// writes, including from destructors), so the on-disk state is exactly
// what a killed process would leave behind. The injector fires at most
// once per arming and counts points identically whether armed or not, so
// a fault-free rehearsal run yields the exact number of kill points a
// sweep must cover.
//
// Separately from crashes, the injector models *transient* I/O errors
// (EIO under memory pressure, NFS hiccups, a full-but-recovering device):
// an armed transient window makes fault points fail with
// Action::kTransientFail instead of crashing. The storage primitive
// handles those by bounded retry — and because a retried operation
// consumes a NEW fault point index, "fail k times then succeed" falls out
// naturally from a k-wide window. Transient faults never fire at the same
// point as the armed crash (the crash wins) and are disjoint from the
// fire-once crash semantics.
//
// A third fault family models *silent corruption* (bit-rot, firmware bugs,
// misbehaving write caches): an armed corrupt point makes the write
// SUCCEED — no exception, no poisoning, the caller believes everything
// worked — but the bytes that reach the file are damaged. Two modes:
//
//   * kBitFlip           — one seeded bit in the byte range is inverted
//                          (classic single-event upset).
//   * kSilentCorruption  — a seeded ~16-byte run is XORed with 0xA5
//                          (firmware scribbling a cache line).
//
// Damage placement is deterministic in (seed, point index) so a corruption
// sweep reproduces bit-for-bit. Corrupt arming is fire-once and loses to
// an armed crash at the same index, mirroring the transient rules, and it
// does NOT change the fault-point numbering of unarmed runs, so crash-sweep
// rehearsal counts stay valid. For at-rest ("cold") damage between runs —
// where no fault point executes — use FlipBitInFile directly on the store
// files.

#ifndef PDR_STORAGE_FAULT_INJECTOR_H_
#define PDR_STORAGE_FAULT_INJECTOR_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace pdr {

/// Thrown by a storage primitive when the armed fault point fires. The
/// durability tests catch it where a real deployment would be SIGKILLed.
/// Construction is the single chokepoint for the flight recorder's
/// crash-dump trigger (see fault_injector.cc) — every throw site inherits
/// the hook for free.
class CrashError : public std::runtime_error {
 public:
  explicit CrashError(const std::string& what);
};

/// Thrown when a transient I/O fault outlives the bounded retry budget
/// (see storage_file.cc). Distinct from CrashError — the store is NOT
/// poisoned; the degradation ladder treats it as "storage is struggling"
/// and falls back to an in-memory rung (DowngradeReason::kTransient).
class TransientExhaustedError : public std::runtime_error {
 public:
  explicit TransientExhaustedError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class CrashMode {
  kClean,
  kTornWrite,
  kTruncatedTail,
};

/// How an armed corruption point damages the bytes it intercepts.
enum class CorruptMode {
  kBitFlip,           ///< invert one seeded bit
  kSilentCorruption,  ///< XOR a seeded ~16-byte run with 0xA5
};

/// At-rest damage: flips bit `bit_index` (0–7) of the byte at
/// `byte_offset` in `path`, in place. Models cold bit-rot that happens
/// between process runs, where no fault point ever executes. Returns false
/// when the file cannot be opened or is shorter than the offset.
bool FlipBitInFile(const std::string& path, uint64_t byte_offset,
                   int bit_index);

class FaultInjector {
 public:
  /// What the intercepted operation must do.
  enum class Action {
    kProceed,
    kCrash,          ///< skip the operation and throw CrashError
    kTornThenCrash,  ///< write a prefix / chop the tail, then throw
    kTransientFail,  ///< skip the operation and report a retryable error
    kCorruptWrite,   ///< perform the operation but damage the bytes first
  };

  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  /// Arms a crash at fault point `point` (0-based, counted across every
  /// intercepted operation since construction).
  void Arm(int64_t point, CrashMode mode) {
    crash_at_ = point;
    mode_ = mode;
    fired_ = false;
  }

  /// Arms transient failures at the `failures` consecutive fault points
  /// starting at `point`: each reports kTransientFail and the operation is
  /// not performed. The retry consumes fresh indices past the window, so
  /// this is exactly "fail `failures` times, then succeed".
  void ArmTransient(int64_t point, int failures = 1) {
    transient_at_ = point;
    transient_failures_ = failures;
    transient_period_ = 0;
    transient_fired_ = 0;
  }

  /// Arms a recurring pattern: every fault point whose index satisfies
  /// `index % period < failures` reports kTransientFail. Models a flaky
  /// device that keeps hiccuping for the whole run.
  void ArmTransientEvery(int64_t period, int failures = 1) {
    transient_at_ = -1;
    transient_failures_ = failures;
    transient_period_ = period;
    transient_fired_ = 0;
  }

  void DisarmTransient() {
    transient_at_ = -1;
    transient_period_ = 0;
    transient_failures_ = 0;
  }

  /// Arms silent corruption at fault point `point` (same numbering as
  /// Arm). Fire-once; an armed crash at the same index wins. The
  /// intercepted write proceeds normally except the buffer it persists is
  /// damaged per `mode` — the caller sees success.
  void ArmCorrupt(int64_t point, CorruptMode mode) {
    corrupt_at_ = point;
    corrupt_mode_ = mode;
    corrupt_fired_ = false;
  }

  /// Whether the armed corruption point has fired. Sweeps assert this to
  /// distinguish "damage was injected and healed" from "the armed point
  /// was never reached" — both look like a clean run from the outside.
  bool corrupt_fired() const { return corrupt_fired_; }
  CorruptMode corrupt_mode() const { return corrupt_mode_; }

  /// Damages `n` bytes at `buf` in place, deterministic in (seed, armed
  /// point index). Called by the storage primitive on kCorruptWrite with
  /// a copy of the caller's buffer. No-op when n == 0.
  void ApplyCorruption(void* buf, size_t n) const {
    if (n == 0) return;
    unsigned char* bytes = static_cast<unsigned char*>(buf);
    const uint64_t h =
        (seed_ * 0x9e3779b97f4a7c15ull) ^
        (static_cast<uint64_t>(corrupt_at_) * 0xff51afd7ed558ccdull);
    if (corrupt_mode_ == CorruptMode::kBitFlip) {
      bytes[h % n] ^= static_cast<unsigned char>(1u << ((h >> 8) % 8));
      return;
    }
    // kSilentCorruption: a cache-line-ish run of bytes XORed with a
    // constant, clamped to the buffer.
    const size_t run = n < 16 ? n : 16;
    const size_t start = static_cast<size_t>(h % (n - run + 1));
    for (size_t i = 0; i < run; ++i) bytes[start + i] ^= 0xA5u;
  }

  /// Transient failures delivered since the last transient arming.
  int64_t transient_fired() const { return transient_fired_; }

  /// Called by a storage primitive before each write/fsync. Counts the
  /// point, records `op` for post-hoc inspection, and reports whether the
  /// armed crash fires here. The crash fires at most once per arming and
  /// takes precedence over any transient window covering the same index.
  Action OnOp(const char* op) {
    const int64_t index = ops_seen_++;
    op_log_.emplace_back(op);
    if (!fired_ && index == crash_at_) {
      fired_ = true;
      return mode_ == CrashMode::kClean ? Action::kCrash
                                        : Action::kTornThenCrash;
    }
    if (TransientAt(index)) {
      ++transient_fired_;
      return Action::kTransientFail;
    }
    if (!corrupt_fired_ && index == corrupt_at_) {
      corrupt_fired_ = true;
      return Action::kCorruptWrite;
    }
    return Action::kProceed;
  }

  CrashMode mode() const { return mode_; }

  /// Fraction of the byte range a torn write persists, deterministic in
  /// (seed, point index) so a sweep is reproducible bit-for-bit.
  double TornFraction() const {
    const uint64_t h =
        (seed_ * 0x9e3779b97f4a7c15ull) ^
        (static_cast<uint64_t>(crash_at_) * 0xff51afd7ed558ccdull);
    return 0.1 + 0.8 * static_cast<double>((h >> 16) % 1000) / 1000.0;
  }

  /// Fault points seen so far (armed or not); a fault-free run's total is
  /// the sweep size.
  int64_t ops_seen() const { return ops_seen_; }

  /// Names of the operations seen, in order (e.g. "wal.write",
  /// "wal.sync", "data.write", "data.sync", "ckpt.write", "ckpt.sync",
  /// "ckpt.rename", "wal.reset").
  const std::vector<std::string>& op_log() const { return op_log_; }

  bool fired() const { return fired_; }

 private:
  bool TransientAt(int64_t index) const {
    if (transient_period_ > 0) {
      return index % transient_period_ < transient_failures_;
    }
    return transient_at_ >= 0 && index >= transient_at_ &&
           index < transient_at_ + transient_failures_;
  }

  uint64_t seed_;
  int64_t crash_at_ = -1;
  CrashMode mode_ = CrashMode::kClean;
  bool fired_ = false;
  int64_t ops_seen_ = 0;
  int64_t transient_at_ = -1;      // window start (one-shot mode)
  int64_t transient_period_ = 0;   // > 0: recurring mode
  int transient_failures_ = 0;
  int64_t transient_fired_ = 0;
  int64_t corrupt_at_ = -1;
  CorruptMode corrupt_mode_ = CorruptMode::kBitFlip;
  bool corrupt_fired_ = false;
  std::vector<std::string> op_log_;
};

}  // namespace pdr

#endif  // PDR_STORAGE_FAULT_INJECTOR_H_
