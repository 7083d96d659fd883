#include "pdr/obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "pdr/obs/clock.h"
#include "pdr/obs/export.h"
#include "pdr/obs/registry.h"

namespace pdr {
namespace {

// Slot layout: four uint64 words per event.
//   w0 = ts_ns
//   w1 = qid<<32 | tid<<16 | kind<<8 | 1   (the low 1 marks a written slot)
//   w2 = a, w3 = b
constexpr size_t kWordsPerSlot = 4;

uint64_t PackMeta(uint32_t qid, uint16_t tid, FrEvent kind) {
  return (static_cast<uint64_t>(qid) << 32) | (static_cast<uint64_t>(tid) << 16) |
         (static_cast<uint64_t>(kind) << 8) | 1u;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

thread_local uint32_t tls_query_id = 0;

}  // namespace

const char* FrEventName(FrEvent kind) {
  switch (kind) {
    case FrEvent::kQueryBegin: return "query_begin";
    case FrEvent::kQueryEnd: return "query_end";
    case FrEvent::kFilter: return "filter";
    case FrEvent::kCellBegin: return "cell_begin";
    case FrEvent::kCellEnd: return "cell_end";
    case FrEvent::kSweep: return "sweep";
    case FrEvent::kBnbPrune: return "bnb_prune";
    case FrEvent::kPageFault: return "page_fault";
    case FrEvent::kWalAppend: return "wal_append";
    case FrEvent::kTierEnter: return "tier_enter";
    case FrEvent::kCancelled: return "cancelled";
    case FrEvent::kShed: return "shed";
    case FrEvent::kTaskRun: return "task_run";
    case FrEvent::kCheckpoint: return "checkpoint";
    case FrEvent::kFftField: return "fft_field";
    case FrEvent::kCorruption: return "corruption";
    case FrEvent::kRangeQuery: return "range_query";
    case FrEvent::kTickBegin: return "tick_begin";
    case FrEvent::kTickEnd: return "tick_end";
  }
  return "unknown";
}

// One thread's event ring. The owner thread is the only writer; readers
// copy slots concurrently and validate against the overwrite announcement
// afterward.
struct FlightRecorder::State {
  struct Ring {
    explicit Ring(size_t capacity, uint16_t tid)
        : capacity(capacity),
          mask(capacity - 1),
          tid(tid),
          words(new std::atomic<uint64_t>[capacity * kWordsPerSlot]) {
      for (size_t i = 0; i < capacity * kWordsPerSlot; ++i) {
        words[i].store(0, std::memory_order_relaxed);
      }
    }

    // Appends the intact events with index >= `from` to `out` and returns
    // the head the copy ran up to. `*lost` (when non-null) counts the
    // events in [from, head) not returned: overwritten before or during
    // the copy. Snapshot() and Drain() share this loop.
    uint64_t CopyIntact(uint64_t from, std::vector<MicroEvent>* out,
                        int64_t* lost) const {
      const uint64_t h = head.load(std::memory_order_acquire);
      const uint64_t oldest = h > capacity ? h - capacity : 0;
      const uint64_t first = std::max(from, oldest);
      struct Raw {
        uint64_t index;
        uint64_t w[kWordsPerSlot];
      };
      std::vector<Raw> raw;
      raw.reserve(h > first ? h - first : 0);
      for (uint64_t i = first; i < h; ++i) {
        Raw r;
        r.index = i;
        const size_t base = (i & mask) * kWordsPerSlot;
        for (size_t w = 0; w < kWordsPerSlot; ++w) {
          r.w[w] = words[base + w].load(std::memory_order_relaxed);
        }
        raw.push_back(r);
      }
      // Seqlock validation: a slot the producer announced overwriting
      // during the copy could hold a torn mix of old and new words — drop
      // it.
      std::atomic_thread_fence(std::memory_order_acquire);
      const uint64_t announced = writing.load(std::memory_order_relaxed);
      const uint64_t safe_first =
          announced > capacity ? announced - capacity : 0;
      const size_t before = out->size();
      for (const Raw& r : raw) {
        if (r.index < safe_first) continue;
        if ((r.w[1] & 0xff) != 1) continue;  // never written
        MicroEvent e;
        e.ts_ns = static_cast<int64_t>(r.w[0]);
        e.query_id = static_cast<uint32_t>(r.w[1] >> 32);
        e.tid = static_cast<uint16_t>((r.w[1] >> 16) & 0xffff);
        e.kind = static_cast<FrEvent>((r.w[1] >> 8) & 0xff);
        e.a = static_cast<int64_t>(r.w[2]);
        e.b = static_cast<int64_t>(r.w[3]);
        out->push_back(e);
      }
      if (lost != nullptr && h > from) {
        *lost += static_cast<int64_t>(h - from) -
                 static_cast<int64_t>(out->size() - before);
      }
      return h;
    }

    const size_t capacity;
    const size_t mask;
    const uint16_t tid;
    std::atomic<uint64_t> head{0};     // events published
    std::atomic<uint64_t> writing{0};  // events whose slot writes began
    uint64_t cursor = 0;               // Drain()'s next index; drain_mu
    std::unique_ptr<std::atomic<uint64_t>[]> words;
  };

  // Returns the calling thread's ring for the current configuration,
  // registering one on first use (or after a Configure/Reset bumped the
  // generation). A ring is owned jointly by the list and by its thread, so
  // a generation bump retires it from the list while the thread may still
  // be writing into it; it is freed once the thread registers its next
  // ring (or exits) and no reader holds a copy.
  Ring* ThreadRing() {
    struct Tls {
      Ring* ring = nullptr;
      uint64_t gen = 0;
    };
    thread_local Tls tls;  // trivially destructible: no guard on the hot path
    uint64_t gen = generation.load(std::memory_order_acquire);
    if (tls.ring == nullptr || tls.gen != gen) {
      thread_local std::shared_ptr<Ring> owned;  // keeps tls.ring alive
      std::lock_guard<std::mutex> lock(mu);
      // Re-read under the lock: Configure may have raced.
      gen = generation.load(std::memory_order_relaxed);
      owned = std::make_shared<Ring>(options.ring_capacity,
                                     static_cast<uint16_t>(rings.size()));
      tls.ring = owned.get();
      tls.gen = gen;
      rings.push_back(owned);
    }
    return tls.ring;
  }

  // Owning copies of the current rings: a reader keeps each ring alive
  // while it copies, even if a generation bump retires it meanwhile.
  std::vector<std::shared_ptr<Ring>> RingList() {
    std::lock_guard<std::mutex> lock(mu);
    return rings;
  }

  std::mutex mu;  // guards rings vector growth, options, and dump files
  std::mutex drain_mu;  // serializes Drain() and guards Ring::cursor
  std::vector<std::shared_ptr<Ring>> rings;
  Options options;
  DumpHook dump_hook;  // guarded by mu; copied out before invocation
  std::atomic<uint64_t> generation{1};
  std::atomic<int64_t> dump_seq{0};
};

#if PDR_OBS_COMPILED
namespace {
// The env default must live in enabled_'s own initializer, not the
// Global() constructor: Record() checks Enabled() *before* touching
// Global(), so a process that only records (a bench under
// PDR_FLIGHT_RECORDER=1) would otherwise never construct the singleton
// and the variable would silently do nothing.
bool EnabledFromEnv() {
  const char* env = std::getenv("PDR_FLIGHT_RECORDER");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}
}  // namespace

std::atomic<bool> FlightRecorder::enabled_{EnabledFromEnv()};
#endif

FlightRecorder::FlightRecorder() : state_(new State) {
  state_->options.ring_capacity = RoundUpPow2(state_->options.ring_capacity);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder;  // never destroyed
  return *recorder;
}

void FlightRecorder::SetEnabled(bool on) {
#if PDR_OBS_COMPILED
  enabled_.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

void FlightRecorder::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->options = options;
  state_->options.ring_capacity =
      RoundUpPow2(std::max<size_t>(options.ring_capacity, 16));
  state_->rings.clear();
  state_->generation.fetch_add(1, std::memory_order_acq_rel);
}

FlightRecorder::Options FlightRecorder::options() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->options;
}

void FlightRecorder::Reset() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->rings.clear();
  state_->generation.fetch_add(1, std::memory_order_acq_rel);
  state_->dump_seq.store(0, std::memory_order_relaxed);
  dumps_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::RecordImpl(FrEvent kind, int64_t a, int64_t b) {
  State::Ring* ring = state_->ThreadRing();
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  // Announce the overwrite before touching the slot, so a reader that
  // copied it concurrently sees the announcement and discards the copy.
  ring->writing.store(head + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  const size_t base = (head & ring->mask) * kWordsPerSlot;
  ring->words[base + 0].store(static_cast<uint64_t>(ObsClock::NowNs()),
                              std::memory_order_relaxed);
  ring->words[base + 1].store(PackMeta(tls_query_id, ring->tid, kind),
                              std::memory_order_relaxed);
  ring->words[base + 2].store(static_cast<uint64_t>(a),
                              std::memory_order_relaxed);
  ring->words[base + 3].store(static_cast<uint64_t>(b),
                              std::memory_order_relaxed);
  // Publish: a reader that observes head > slot index also observes the
  // slot words (or detects a later overwrite via the announcement).
  ring->head.store(head + 1, std::memory_order_release);
}

uint32_t FlightRecorder::NextQueryId() {
  static std::atomic<uint32_t> next{1};
  uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  if (id == 0) id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

uint32_t FlightRecorder::CurrentQueryId() { return tls_query_id; }

FlightRecorder::QueryScope::QueryScope(uint32_t query_id) : prev_(tls_query_id) {
  tls_query_id = query_id;
}

FlightRecorder::QueryScope::~QueryScope() { tls_query_id = prev_; }

namespace {

void SortByTime(std::vector<MicroEvent>* events) {
  std::stable_sort(events->begin(), events->end(),
                   [](const MicroEvent& x, const MicroEvent& y) {
                     if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
                     return x.tid < y.tid;
                   });
}

}  // namespace

std::vector<MicroEvent> FlightRecorder::Snapshot() const {
  std::vector<MicroEvent> events;
  for (const auto& ring : state_->RingList()) {
    ring->CopyIntact(0, &events, nullptr);
  }
  SortByTime(&events);
  return events;
}

FlightRecorder::DrainResult FlightRecorder::Drain() {
  DrainResult out;
  std::lock_guard<std::mutex> lock(state_->drain_mu);
  for (const auto& ring : state_->RingList()) {
    ring->cursor =
        ring->CopyIntact(ring->cursor, &out.events, &out.overwritten);
  }
  SortByTime(&out.events);
  return out;
}

namespace {

// Appends `,"name":value` pairs decoding the two payload words per kind.
void AppendArgs(std::string* out, const MicroEvent& e) {
  auto add = [out](const char* name, int64_t v) {
    out->append(out->back() == '{' ? "\"" : ",\"");
    out->append(name);
    out->append("\":");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    out->append(buf);
  };
  const int64_t hi_a = FlightRecorder::PackHi(e.a);
  const int64_t lo_a = FlightRecorder::PackLo(e.a);
  const int64_t hi_b = FlightRecorder::PackHi(e.b);
  const int64_t lo_b = FlightRecorder::PackLo(e.b);
  switch (e.kind) {
    case FrEvent::kQueryBegin: {
      add("q_t", e.a);
      double rho;
      static_assert(sizeof(rho) == sizeof(e.b));
      std::memcpy(&rho, &e.b, sizeof(rho));
      char buf[48];
      std::snprintf(buf, sizeof(buf), ",\"rho\":\"%a\"", rho);
      out->append(buf);
      break;
    }
    case FrEvent::kQueryEnd:
      add("objects", e.a);
      add("dense_rects", e.b);
      break;
    case FrEvent::kFilter:
      add("accepted", hi_a);
      add("rejected", lo_a);
      add("candidates", e.b);
      break;
    case FrEvent::kCellBegin:
      add("col", hi_a);
      add("row", lo_a);
      break;
    case FrEvent::kCellEnd:
      add("col", hi_a);
      add("row", lo_a);
      add("objects", hi_b);
      add("rects", lo_b);
      break;
    case FrEvent::kSweep:
      add("x_strips", hi_a);
      add("y_sweeps", lo_a);
      add("y_strips", hi_b);
      add("rects", lo_b);
      break;
    case FrEvent::kBnbPrune:
      add("cell", e.a);
      add("pruned", e.b);
      break;
    case FrEvent::kPageFault:
      add("page", e.a);
      add("physical", e.b);
      break;
    case FrEvent::kWalAppend:
      add("lsn", e.a);
      add("bytes", e.b);
      break;
    case FrEvent::kTierEnter:
      add("tier", e.a);
      add("reason", e.b);
      break;
    case FrEvent::kCancelled:
      add("tier", e.a);
      add("elapsed_us", e.b);
      break;
    case FrEvent::kShed:
      add("tick", e.a);
      break;
    case FrEvent::kTaskRun:
      add("seq", e.a);
      break;
    case FrEvent::kCheckpoint:
      add("tick", e.a);
      add("pages", e.b);
      break;
    case FrEvent::kFftField:
      add("q_t", e.a);
      add("grid", e.b);
      break;
    case FrEvent::kCorruption:
      add("page", e.a);
      add("repaired", e.b);
      break;
    case FrEvent::kRangeQuery:
      add("objects", e.a);
      add("logical", hi_b);
      add("physical", lo_b);
      break;
    case FrEvent::kTickBegin:
      add("now", e.a);
      add("q_t", e.b);
      break;
    case FrEvent::kTickEnd:
      add("tier", e.a);
      add("rects", e.b);
      break;
  }
}

}  // namespace

std::string FlightRecorder::EventJson(const MicroEvent& event) {
  std::string out = "{\"type\":\"fr_event\",\"ts_ns\":";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "%" PRId64 ",\"qid\":%u,\"tid\":%u,\"kind\":\"%s\",\"args\":{",
                event.ts_ns, event.query_id, event.tid,
                FrEventName(event.kind));
  out.append(buf);
  AppendArgs(&out, event);
  out.append("}}");
  return out;
}

void FlightRecorder::WriteJsonl(std::FILE* out,
                                const std::vector<MicroEvent>& events,
                                const std::string& reason, uint32_t query_id) {
  std::fprintf(out,
               "{\"type\":\"fr_dump\",\"reason\":\"%s\",\"query_id\":%u,"
               "\"events\":%zu}\n",
               JsonEscape(reason).c_str(), query_id, events.size());
  for (const MicroEvent& e : events) {
    std::string line = EventJson(e);
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
  }
}

namespace {

// The begin/end kinds WriteChromeTrace renders as B/E duration slices.
struct Slice {
  FrEvent begin;
  FrEvent end;
  const char* name;
};
constexpr Slice kSlices[] = {
    {FrEvent::kQueryBegin, FrEvent::kQueryEnd, "query"},
    {FrEvent::kCellBegin, FrEvent::kCellEnd, "cell"},
    {FrEvent::kTickBegin, FrEvent::kTickEnd, "tick"},
};

const Slice* SliceOf(FrEvent kind) {
  for (const Slice& s : kSlices) {
    if (kind == s.begin || kind == s.end) return &s;
  }
  return nullptr;
}

}  // namespace

void FlightRecorder::WriteChromeTrace(std::FILE* out,
                                      const std::vector<MicroEvent>& events,
                                      const std::string& reason,
                                      uint32_t query_id) {
  // Chrome trace-event JSON object form, loadable by Perfetto and
  // chrome://tracing. ts is microseconds; we keep nanosecond precision via
  // the fractional part.
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"reason\":\"%s\","
               "\"query_id\":\"%u\"},\"traceEvents\":[",
               JsonEscape(reason).c_str(), query_id);
  bool first = true;
  auto emit = [&](const MicroEvent& e, char ph, const char* name) {
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"pdr\",\"ph\":\"%c\","
                 "\"ts\":%" PRId64 ".%03d,\"pid\":1,\"tid\":%u",
                 first ? "" : ",", name, ph, e.ts_ns / 1000,
                 static_cast<int>(e.ts_ns % 1000), e.tid);
    first = false;
    if (ph == 'i') {
      std::fputs(",\"s\":\"t\"", out);
    }
    if (ph != 'E') {
      std::string args = "{";
      AppendArgs(&args, e);
      args.push_back('}');
      std::fprintf(out, ",\"args\":{\"qid\":%u,\"detail\":%s}", e.query_id,
                   args.c_str());
    }
    std::fputc('}', out);
  };
  // Per-tid stacks so B/E pairs nest even when the ring overwrote one
  // side of a pair: an unmatched End degrades to an instant, and any
  // Begin still open at the end of the snapshot is closed at the final
  // timestamp.
  std::map<uint16_t, std::vector<const Slice*>> open;
  int64_t last_ts = events.empty() ? 0 : events.back().ts_ns;
  for (const MicroEvent& e : events) {
    const Slice* slice = SliceOf(e.kind);
    if (slice == nullptr) {
      emit(e, 'i', FrEventName(e.kind));
    } else if (e.kind == slice->begin) {
      emit(e, 'B', slice->name);
      open[e.tid].push_back(slice);
    } else {
      auto& stack = open[e.tid];
      if (!stack.empty() && stack.back() == slice) {
        emit(e, 'E', slice->name);
        stack.pop_back();
      } else {
        emit(e, 'i', slice->name);
      }
    }
  }
  for (const auto& [tid, stack] : open) {
    for (size_t i = stack.size(); i > 0; --i) {
      MicroEvent close;
      close.ts_ns = last_ts;
      close.tid = tid;
      emit(close, 'E', stack[i - 1]->name);
    }
  }
  std::fputs("\n]}\n", out);
}

FlightRecorder::DumpInfo FlightRecorder::Dump(const std::string& reason,
                                              uint32_t query_id) {
  DumpInfo info;
  Options opts = options();
  if (opts.dump_dir.empty()) return info;
  const int64_t seq = state_->dump_seq.fetch_add(1, std::memory_order_relaxed);
  if (seq >= opts.max_dumps) return info;

  std::vector<MicroEvent> events = Snapshot();

  char stem[256];
  if (query_id != 0) {
    std::snprintf(stem, sizeof(stem), "%s/fr_%03" PRId64 "_%s_q%u",
                  opts.dump_dir.c_str(), seq, reason.c_str(), query_id);
  } else {
    std::snprintf(stem, sizeof(stem), "%s/fr_%03" PRId64 "_%s",
                  opts.dump_dir.c_str(), seq, reason.c_str());
  }
  info.jsonl_path = std::string(stem) + ".jsonl";
  info.trace_path = std::string(stem) + ".trace.json";

  std::FILE* jsonl = std::fopen(info.jsonl_path.c_str(), "w");
  if (jsonl == nullptr) return info;
  WriteJsonl(jsonl, events, reason, query_id);
  info.jsonl_bytes = std::ftell(jsonl);
  std::fclose(jsonl);

  std::FILE* trace = std::fopen(info.trace_path.c_str(), "w");
  if (trace == nullptr) return info;
  WriteChromeTrace(trace, events, reason, query_id);
  info.trace_bytes = std::ftell(trace);
  std::fclose(trace);

  info.ok = true;
  info.events = events.size();
  dumps_.fetch_add(1, std::memory_order_relaxed);
  static Counter& dumps =
      MetricsRegistry::Global().GetCounter("pdr.flightrec.dumps");
  dumps.Increment();

  // Bundle seam: hand the finished dump to the registered hook (workload
  // recorder), outside the lock so the hook may re-enter recorder APIs.
  DumpHook hook;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    hook = state_->dump_hook;
  }
  if (hook) hook(info, reason);
  return info;
}

void FlightRecorder::SetDumpHook(DumpHook hook) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->dump_hook = std::move(hook);
}

void FlightRecorder::TriggerDump(Trigger trigger, const std::string& reason,
                                 uint32_t query_id) {
  if (!Enabled()) return;
  if ((options().triggers & trigger) == 0) return;
  Dump(reason, query_id);
}

}  // namespace pdr
