// perfbench — the repository's end-to-end and per-layer benchmark.
//
// One workload per process. Each repetition builds the stack from
// scratch through the public APIs of db, blocklayer, ssd and sim, runs a
// fixed-size closed loop generated from --seed, checks every result
// against a shadow model and keeps going after a failed op. Host
// metrics (wall time, CPU, set-up, RSS) describe the simulator as a
// program and are medians over the repetitions of one run. Sim metrics
// describe the modelled device; they repeat exactly for a seed, and
// every repetition must reproduce them (and the event-schedule
// fingerprint) bit for bit.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates
// untraced and traced repetitions and prints the per-layer metrics: host
// time from spans the benchmark records around its calls into each layer
// (spans.h), counters read from each layer's public accessors, and
// simulated stage time from trace::LatencyBreakdown. See README.md.
//
//   perfbench --workload device_mix --seed 1 --seconds 10 --trace 0

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blocklayer/block_layer.h"
#include "common/rng.h"
#include "db/storage_manager.h"
#include "obs/engine_profiler.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"
#include "spans.h"
#include "ssd/config.h"
#include "ssd/device.h"
#include "ssd/shard_plan.h"
#include "ssd/shard_router.h"
#include "trace/tracer.h"

namespace perfbench {
namespace {

namespace pb = postblock;
using pb::SimTime;

// ---------------------------------------------------------------------------
// Workload sizes. Fixed here, identical for every seed.

// device_mix / device_mix_sharded: Fig. 2's aged consumer drive.
constexpr std::uint64_t kMixOps = 100000;  // measured IOs per repetition
constexpr std::uint32_t kMixDepth = 32;    // closed-loop queue depth
constexpr std::uint32_t kMixWritePercent = 30;
constexpr std::uint32_t kMaxShardWorkers = 4;

// oltp_classic: one client on E22's device, doubled to
// hold a bulk-loaded tree of ~440 pages. The tree is ~3.5x the buffer
// pool, so most Gets miss and the read median is a device read, not a
// zero-time cache hit (at 2x about half the Gets hit).
constexpr std::uint64_t kOltpOps = 100000;  // measured txns per repetition
constexpr std::uint64_t kBulkKeys = 56000;
constexpr std::uint64_t kBulkBatch = 100;
constexpr std::size_t kBufferFrames = 128;
constexpr std::uint32_t kOltpBlocksPerPlane = 16;
constexpr std::uint64_t kCheckpointEvery = 120;  // txns
constexpr std::uint32_t kGetPercent = 50;
constexpr std::uint32_t kPutPercent = 42;  // the remaining 8% delete

// Sim metrics pool this many independent sub-streams of one --seed, each
// on a freshly built and aged stack: one stream's GC regime persists for
// its whole length, so independent streams steady the percentiles where
// a longer single stream does not.
constexpr std::uint32_t kSubSeeds = 6;

// A p999 is reported only with at least this many samples beyond it.
constexpr std::uint64_t kTailSamples = 10;
// Failed writes printed to stderr per repetition; the rest are counted.
constexpr std::uint64_t kFailuresShown = 3;

pb::ssd::Config MixConfig() {
  pb::ssd::Config c = pb::ssd::Config::Consumer2012();
  c.over_provisioning = 0.10;
  return c;
}

pb::ssd::Config OltpConfig() {
  pb::ssd::Config c = pb::ssd::Config::Small();
  c.geometry.blocks_per_plane = kOltpBlocksPerPlane;
  return c;
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of exact samples (ns), in microseconds.
double PercentileUs(std::vector<std::uint64_t>* v, double p) {
  if (v->empty()) return 0;
  const std::size_t n = v->size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(rank),
                   v->end());
  return static_cast<double>((*v)[rank]) / 1000.0;
}

// ---------------------------------------------------------------------------
// The ssd::Device decorator: times every call the layer above makes into
// the device. Counts and times only the outermost call when Device
// re-enters itself (Execute lowering onto Submit).

class TimedDevice final : public pb::ssd::Device {
 public:
  TimedDevice(pb::sim::Simulator* sim, const pb::ssd::Config& config,
              SpanLog* log)
      : Device(sim, config), log_(log) {}
  TimedDevice(pb::ssd::ShardRouter* router, const pb::ssd::Config& config,
              const std::vector<pb::trace::Tracer*>& channel_tracers,
              SpanLog* log)
      : Device(router, config, channel_tracers), log_(log) {}

  void Submit(pb::blocklayer::IoRequest request) override {
    Enter();
    Device::Submit(std::move(request));
    Leave();
  }
  void SubmitBatch(std::vector<pb::blocklayer::IoRequest> batch) override {
    Enter();
    Device::SubmitBatch(std::move(batch));
    Leave();
  }
  void Execute(pb::host::Command cmd) override {
    Enter();
    Device::Execute(std::move(cmd));
    Leave();
  }

  std::uint64_t calls() const { return calls_; }

 private:
  void Enter() {
    if (depth_++ == 0) {
      ++calls_;
      log_->Begin(kSpanSsdSubmit);
    }
  }
  void Leave() {
    if (--depth_ == 0) log_->End();
  }

  SpanLog* log_;
  std::uint32_t depth_ = 0;
  std::uint64_t calls_ = 0;
};

// ---------------------------------------------------------------------------
// Shadow model of the device's logical pages. Every write carries a
// unique token. Writes to one page that overlap in time may take effect
// in either order, so a read may return the token of any write that is
// not superseded: a write X is superseded once a write submitted after X
// completed has itself completed. While a write to the page is in flight
// or issued during the read, the read is racy and any such write's token
// is correct too. Sequence numbers count completions.

class DeviceShadow {
 public:
  explicit DeviceShadow(std::uint64_t pages)
      : barrier_(pages, 0), last_submitted_(pages, 0), inflight_(pages, 0) {
    NewToken(kNoPage);  // token 0 = never written
  }

  std::uint64_t BeginWrite(std::uint32_t page) {
    const std::uint64_t token = NewToken(page);
    last_submitted_[page] = token;
    ++inflight_[page];
    return token;
  }
  void EndWrite(std::uint64_t token, bool ok) {
    const std::uint32_t page = token_page_[token];
    --inflight_[page];
    token_done_[token] = ++done_seq_;
    if (ok) {
      barrier_[page] = std::max(barrier_[page], token_submit_[token]);
    } else {
      token_page_[token] = kNoPage;  // a failed write is never correct
    }
  }

  struct ReadTicket {
    std::uint32_t page = 0;
    std::uint64_t barrier = 0;
    std::uint64_t last_submitted = 0;
    bool overlapped = false;
  };
  ReadTicket BeginRead(std::uint32_t page) const {
    return {page, barrier_[page], last_submitted_[page], inflight_[page] > 0};
  }
  /// Returns false for a wrong token; sets *racy when a write overlapped.
  bool EndRead(const ReadTicket& t, std::uint64_t token, bool* racy) const {
    *racy = t.overlapped || last_submitted_[t.page] != t.last_submitted;
    return token < token_page_.size() && token_page_[token] == t.page &&
           (token_done_[token] == 0 || token_done_[token] > t.barrier);
  }

 private:
  static constexpr std::uint32_t kNoPage = ~0u;

  std::uint64_t NewToken(std::uint32_t page) {
    token_page_.push_back(page);
    token_submit_.push_back(done_seq_);
    token_done_.push_back(0);
    return token_page_.size() - 1;
  }

  /// Per page: the latest submission point (completion count at submit)
  /// of a completed write; writes that completed before it are stale.
  std::vector<std::uint64_t> barrier_;
  std::vector<std::uint64_t> last_submitted_;
  std::vector<std::uint16_t> inflight_;
  std::vector<std::uint32_t> token_page_;
  std::vector<std::uint64_t> token_submit_;
  std::vector<std::uint64_t> token_done_;  // 0 while in flight
  std::uint64_t done_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Closed loop of single-page IOs at a fixed depth. Two drives:
//   turns  — the loop runs the simulator until the next completion,
//            checks it and submits the replacement from outside event
//            context; one root span per turn (single Simulator);
//   inline — completions check and resubmit inside the completion
//            callback (controller-shard context on the sharded engine).

struct Phase {
  enum class Kind { kAging, kMix } kind = Kind::kMix;
  std::uint64_t ops = 0;
  bool record = false;      // keep latency samples and sim metrics
  bool through_blk = false; // target is the block layer (span it)
};

class DeviceLoop {
 public:
  DeviceLoop(DeviceShadow* shadow, SpanLog* log, pb::sim::Simulator* clock,
             std::uint64_t pages, std::uint64_t seed)
      : shadow_(shadow), log_(log), clock_(clock), pages_(pages),
        rng_(seed ^ 0x6d69785f6c6f6f70ull) {
    pb::Rng perm_rng(seed ^ 0x6167696e67ull);
    perm_.resize(pages);
    for (std::uint64_t i = 0; i < pages; ++i) perm_[i] = static_cast<std::uint32_t>(i);
    for (std::uint64_t i = pages; i > 1; --i) {
      std::swap(perm_[i - 1], perm_[perm_rng.Uniform(i)]);
    }
  }

  void Begin(pb::blocklayer::BlockDevice* target, const Phase& phase) {
    target_ = target;
    phase_ = phase;
    issued_ = completed_ = failed_ = mismatches_ = racy_ = 0;
    slots_.assign(kMixDepth, Slot{});
    done_.clear();
    sim_start_ = clock_->Now();
    sim_last_ = sim_start_;
  }

  /// Fills the queue. Call from the drive's context before running.
  void IssueInitial() {
    for (std::uint32_t s = 0; s < kMixDepth && issued_ < phase_.ops; ++s) {
      Issue(s);
    }
  }

  /// Turn drive on a single Simulator; returns when every op completed
  /// or the simulator ran dry.
  void RunTurns(pb::sim::Simulator* sim) {
    std::uint64_t turn = 0;
    log_->set_op(turn);
    log_->Begin(kSpanOp);
    IssueInitial();
    log_->End();
    const std::function<bool()> pred = [this] { return !done_.empty(); };
    while (completed_ < phase_.ops) {
      log_->set_op(++turn);
      log_->Begin(kSpanOp);
      log_->Begin(kSpanSimRun);
      const bool progressed = sim->RunUntilPredicate(pred);
      log_->End();
      for (const std::uint32_t s : done_) Finish(s);
      done_.clear();
      log_->End();
      if (!progressed) break;
    }
  }

  void set_inline(bool on) { inline_ = on; }

  std::uint64_t failed() const {
    return failed_ + (phase_.ops - completed_);  // never completed
  }
  std::uint64_t mismatches() const { return mismatches_; }
  std::uint64_t racy_reads() const { return racy_; }
  SimTime sim_elapsed() const { return sim_last_ - sim_start_; }
  std::vector<std::uint64_t>* read_ns() { return &read_ns_; }
  std::vector<std::uint64_t>* write_ns() { return &write_ns_; }

 private:
  struct Slot {
    SimTime t0 = 0;
    SimTime t1 = 0;
    std::uint64_t token = 0;  // write token, or token read back
    DeviceShadow::ReadTicket ticket;
    bool write = false;
    bool ok = false;
  };

  void Issue(std::uint32_t s) {
    Slot& slot = slots_[s];
    std::uint32_t page = 0;
    if (phase_.kind == Phase::Kind::kAging) {
      page = issued_ < pages_ ? static_cast<std::uint32_t>(issued_)
                              : perm_[issued_ - pages_];
      slot.write = true;
    } else {
      slot.write = rng_.Uniform(100) < kMixWritePercent;
      page = static_cast<std::uint32_t>(rng_.Uniform(pages_));
    }
    ++issued_;
    pb::blocklayer::IoRequest req;
    req.lba = page;
    req.nblocks = 1;
    if (slot.write) {
      slot.token = shadow_->BeginWrite(page);
      req.op = pb::blocklayer::IoOp::kWrite;
      req.tokens.assign(1, slot.token);
    } else {
      slot.ticket = shadow_->BeginRead(page);
      req.op = pb::blocklayer::IoOp::kRead;
    }
    req.on_complete = [this, s](const pb::blocklayer::IoResult& r) {
      OnComplete(s, r);
    };
    slot.t0 = clock_->Now();
    if (phase_.through_blk) {
      ScopedSpan span(log_, kSpanBlkSubmit);
      target_->Submit(std::move(req));
    } else {
      target_->Submit(std::move(req));
    }
  }

  void OnComplete(std::uint32_t s, const pb::blocklayer::IoResult& r) {
    Slot& slot = slots_[s];
    slot.t1 = clock_->Now();
    slot.ok = r.status.ok();
    if (!slot.write) slot.token = (slot.ok && !r.tokens.empty()) ? r.tokens[0] : 0;
    if (!inline_) {
      done_.push_back(s);
      return;
    }
    log_->set_op(completed_ + 1);
    log_->Begin(kSpanOp);
    Finish(s);
    log_->End();
  }

  void Finish(std::uint32_t s) {
    Slot& slot = slots_[s];
    ++completed_;
    sim_last_ = slot.t1;
    bool good = slot.ok;
    if (slot.write) {
      shadow_->EndWrite(slot.token, slot.ok);
    } else if (slot.ok) {
      bool racy = false;
      good = shadow_->EndRead(slot.ticket, slot.token, &racy);
      if (racy) ++racy_;
      if (!good) ++mismatches_;
    }
    if (!good) ++failed_;
    if (phase_.record) {
      (slot.write ? write_ns_ : read_ns_).push_back(slot.t1 - slot.t0);
    }
    if (issued_ < phase_.ops) Issue(s);
  }

  DeviceShadow* shadow_;
  SpanLog* log_;
  pb::sim::Simulator* clock_;
  std::uint64_t pages_;
  pb::Rng rng_;
  std::vector<std::uint32_t> perm_;
  pb::blocklayer::BlockDevice* target_ = nullptr;
  Phase phase_;
  bool inline_ = false;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> done_;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t racy_ = 0;
  SimTime sim_start_ = 0;
  SimTime sim_last_ = 0;
  std::vector<std::uint64_t> read_ns_;
  std::vector<std::uint64_t> write_ns_;
};

// ---------------------------------------------------------------------------
// Counter snapshots, read from each layer's public accessors.

using Snapshot = std::map<std::string, double>;

struct Stack {
  TimedDevice* dev = nullptr;
  pb::blocklayer::BlockLayer* blk = nullptr;
  pb::db::StorageManager* db = nullptr;
  pb::sim::Simulator* sim = nullptr;
  pb::sim::ShardedEngine* engine = nullptr;
};

Snapshot Snap(const Stack& st) {
  Snapshot s;
  const pb::Counters& flash = st.dev->controller()->counters();
  s["flash.page_reads"] = static_cast<double>(flash.Get("pages_read"));
  s["flash.page_programs"] = static_cast<double>(flash.Get("pages_programmed"));
  s["flash.erases"] = static_cast<double>(flash.Get("blocks_erased"));
  const pb::Counters& ftl = st.dev->ftl()->counters();
  s["ftl.host_pages"] = static_cast<double>(ftl.Get("host_pages_accepted"));
  s["ftl.gc_page_moves"] = static_cast<double>(ftl.Get("gc_page_moves"));
  s["ftl.gc_erases"] = static_cast<double>(ftl.Get("gc_erases"));
  s["ssd.buffer_read_hits"] =
      static_cast<double>(st.dev->counters().Get("buffer_read_hits"));
  s["ssd.gc_stall_read_ns"] =
      static_cast<double>(st.dev->controller()->GcStallReadNs());
  s["ssd.calls"] = static_cast<double>(st.dev->calls());
  double busy = 0;
  for (std::uint32_t c = 0; c < st.dev->controller()->num_channels(); ++c) {
    busy += static_cast<double>(
        st.dev->controller()->channel(c)->resource()->busy_ns());
  }
  s["ssd.channel_busy_ns"] = busy;
  if (st.blk != nullptr) {
    s["blocklayer.submitted"] =
        static_cast<double>(st.blk->counters().Get("submitted"));
    s["blocklayer.merges"] =
        static_cast<double>(st.blk->scheduler(0).counters().Get("back_merges"));
  }
  if (st.db != nullptr) {
    const pb::Counters& bp = st.db->buffer_pool()->counters();
    s["db.bp_hits"] = static_cast<double>(bp.Get("hits"));
    s["db.bp_misses"] = static_cast<double>(bp.Get("misses"));
    s["db.bp_evictions"] = static_cast<double>(bp.Get("evictions"));
    s["db.wal_commits"] = static_cast<double>(st.db->wal()->counters().Get("commits"));
    s["db.checkpoints"] = static_cast<double>(st.db->counters().Get("checkpoints"));
    const pb::Counters& core = st.db->store()->counters();
    s["core.sync_bytes"] = static_cast<double>(core.Get("sync_bytes"));
    s["core.sync_padded_bytes"] = static_cast<double>(core.Get("sync_padded_bytes"));
  }
  if (st.engine != nullptr) {
    s["sim.events"] = static_cast<double>(st.engine->events_executed());
    s["engine.rounds"] = static_cast<double>(st.engine->rounds());
    s["engine.seam_msgs"] = static_cast<double>(st.engine->messages_delivered());
  } else {
    s["sim.events"] = static_cast<double>(st.sim->events_executed());
  }
  return s;
}

Snapshot Delta(const Snapshot& after, const Snapshot& before) {
  Snapshot d;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// One repetition: build, set up, measure, check.

/// The simulated-time observations of one repetition.
struct SimSample {
  std::vector<std::uint64_t> read_ns;
  std::vector<std::uint64_t> write_ns;
  SimTime elapsed = 0;
  std::uint64_t ops = 0;
  double programs = 0;    // flash pages programmed
  double host_pages = 0;  // pages the FTL accepted from the host
  double map_bytes = 0;   // the device's mapping table
};

struct Rep {
  SimSample sample;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::pair<std::string, double>> sim;  // deterministic
  std::map<std::string, double> layer;
  SpanTotals spans;
  std::vector<std::string> problems;  // failed checks (not op failures)
};

struct RepOptions {
  std::uint64_t seed = 1;
  std::uint32_t sub = 0;            // sub-stream of the seed
  bool traced = false;
  std::uint32_t workers = 0;        // sharded only
  const char* spans_csv = nullptr;  // traced only
};

/// Sim metrics over one or more repetitions' samples, pooled.
std::vector<std::pair<std::string, double>> SimMetrics(
    const std::vector<const SimSample*>& samples, std::vector<std::string>* problems) {
  std::vector<std::uint64_t> reads, writes;
  double ops = 0, elapsed = 0, programs = 0, host_pages = 0, map_bytes = 0;
  for (const SimSample* x : samples) {
    reads.insert(reads.end(), x->read_ns.begin(), x->read_ns.end());
    writes.insert(writes.end(), x->write_ns.begin(), x->write_ns.end());
    ops += static_cast<double>(x->ops);
    elapsed += static_cast<double>(x->elapsed) * 1e-9;
    programs += x->programs;
    host_pages += x->host_pages;
    map_bytes += x->map_bytes / static_cast<double>(samples.size());
  }
  for (const auto* v : {&reads, &writes}) {
    if (static_cast<double>(v->size()) * (1.0 - 0.999) <
        static_cast<double>(kTailSamples)) {
      problems->push_back("p999 has fewer than 10 samples beyond it");
    }
  }
  return {
      {"sim_ops_per_s", Ratio(ops, elapsed)},
      {"sim_read_p50_us", PercentileUs(&reads, 0.50)},
      {"sim_read_p999_us", PercentileUs(&reads, 0.999)},
      {"sim_write_p50_us", PercentileUs(&writes, 0.50)},
      {"sim_write_p999_us", PercentileUs(&writes, 0.999)},
      {"write_amp", Ratio(programs, host_pages)},
      {"map_bytes", map_bytes},
  };
}

void AddSimSample(Rep* rep, std::vector<std::uint64_t>* reads,
                  std::vector<std::uint64_t>* writes, SimTime elapsed,
                  const Snapshot& d, double map_bytes) {
  SimSample& x = rep->sample;
  x.read_ns = std::move(*reads);
  x.write_ns = std::move(*writes);
  x.elapsed = elapsed;
  x.ops = rep->ops;
  x.programs = d.at("flash.page_programs");
  x.host_pages = d.at("ftl.host_pages");
  x.map_bytes = map_bytes;
  rep->sim = SimMetrics({&x}, &rep->problems);
  rep->layer["workload.read_ops"] = static_cast<double>(x.read_ns.size());
  rep->layer["workload.write_ops"] = static_cast<double>(x.write_ns.size());
}

/// Per-layer metrics every workload shares, from counter deltas.
void AddDeviceLayers(Rep* rep, const Snapshot& d, SimTime sim_elapsed,
                     std::uint32_t channels) {
  auto& L = rep->layer;
  for (const char* k :
       {"flash.page_reads", "flash.page_programs", "flash.erases",
        "ftl.gc_page_moves", "ftl.gc_erases", "ftl.host_pages",
        "ssd.buffer_read_hits"}) {
    L[k] = d.at(k);
  }
  L["ftl.moves_per_host_write"] = Ratio(d.at("ftl.gc_page_moves"), d.at("ftl.host_pages"));
  L["ssd.gc_stall_read_us"] = d.at("ssd.gc_stall_read_ns") / 1000.0;
  L["ssd.channel_busy_frac"] =
      Ratio(d.at("ssd.channel_busy_ns"),
            static_cast<double>(channels) * static_cast<double>(sim_elapsed));
  L["ssd.ios"] = d.at("ssd.calls");
  L["sim.events_per_op"] = Ratio(d.at("sim.events"), static_cast<double>(rep->ops));
  L["sim.host_ns_per_event"] = Ratio(rep->wall_s * 1e9, d.at("sim.events"));
}

/// The sharded device records channel-side stages in one tracer per
/// channel shard, so every sum runs over a set of breakdowns.
using Breakdowns = std::vector<pb::trace::LatencyBreakdown>;

Breakdowns Breakdown(const std::vector<std::unique_ptr<pb::trace::Tracer>>& tracers) {
  Breakdowns out;
  for (const auto& t : tracers) out.push_back(t->breakdown());
  return out;
}

/// Simulated stage time from the tracers' drop-proof breakdowns: mean per
/// op (an op is one IO on the device workloads), plus the Σ stages == io
/// identity for single-page IOs.
/// `seam_ns` is the priced controller<->channel seam delay one host IO
/// crosses on the sharded device (dispatch + completion). No stage
/// records it, so there the identity is Σ stages + seam == io, exactly.
/// On the oltp workloads the aggregate identity does not apply: WAL log
/// IOs carry their commit's kApp span instead of a kIo root, so
/// `check_identity` is false there and the gap is only reported.
void AddStages(Rep* rep, const Breakdowns& before, const Breakdowns& after,
               bool check_identity, SimTime seam_ns) {
  using pb::trace::Origin;
  using pb::trace::Stage;
  const Origin host[] = {Origin::kHostRead, Origin::kHostWrite,
                         Origin::kHostTrim, Origin::kHostFlush};
  auto total = [&](const Breakdowns& x, Stage s) {
    std::uint64_t t = 0;
    for (const auto& b : x) {
      for (Origin o : host) t += b.TotalNs(s, o);
    }
    return t;
  };
  auto count = [&](const Breakdowns& x, Stage s) {
    std::uint64_t t = 0;
    for (const auto& b : x) {
      for (Origin o : host) t += b.Count(s, o);
    }
    return t;
  };
  auto& L = rep->layer;
  L["stage.ios"] = static_cast<double>(count(after, Stage::kIo) -
                                       count(before, Stage::kIo));
  const double ops = static_cast<double>(rep->ops);
  const std::pair<const char*, Stage> stages[] = {
      {"stage.queue_wait_us", Stage::kQueueWait},
      {"stage.schedule_us", Stage::kSchedule},
      {"stage.map_us", Stage::kMap},
      {"stage.gc_stall_us", Stage::kGcStall},
      {"stage.transfer_us", Stage::kTransfer},
      {"stage.cell_op_us", Stage::kCellOp},
      {"stage.app_us", Stage::kApp},
  };
  for (const auto& [name, s] : stages) {
    L[name] = Ratio(static_cast<double>(total(after, s) - total(before, s)), ops) /
              1000.0;
  }
  // The identity holds over the whole run (set-up included): every host
  // IO's stage spans tile its kIo span.
  std::uint64_t gap = 0;
  for (Origin o : {Origin::kHostRead, Origin::kHostWrite}) {
    std::uint64_t attributed = 0, io = 0;
    for (const auto& b : after) {
      attributed += b.AttributedNs(o) + seam_ns * b.Count(Stage::kIo, o);
      io += b.TotalNs(Stage::kIo, o);
    }
    gap += attributed > io ? attributed - io : io - attributed;
  }
  L["stage.seam_us"] = static_cast<double>(seam_ns) / 1000.0;
  L["trace.stage_identity_gap_ns"] = static_cast<double>(gap);
  if (check_identity && gap != 0) {
    rep->problems.push_back("stage spans do not tile the kIo spans");
  }
}

void AddSpanLayers(Rep* rep, const SpanLog& log, const RepOptions& o) {
  if (!log.balanced()) rep->problems.push_back("unbalanced spans");
  rep->spans = Analyze(log.spans());
  const SpanTotals& t = rep->spans;
  if (!t.tiled) rep->problems.push_back("span self times do not tile their roots");
  auto& L = rep->layer;
  const double ops = static_cast<double>(rep->ops);
  L["bench.self_ms"] = static_cast<double>(t.self_ns[kSpanOp]) / 1e6;
  L["sim.run_self_ms"] =
      static_cast<double>(t.self_ns[kSpanSimRun] + t.self_ns[kSpanEngineRun]) / 1e6;
  L["blocklayer.submit_ns_per_io"] =
      Ratio(static_cast<double>(t.total_ns[kSpanBlkSubmit]),
            static_cast<double>(t.count[kSpanBlkSubmit]));
  L["ssd.submit_ns_per_io"] =
      Ratio(static_cast<double>(t.total_ns[kSpanSsdSubmit]),
            static_cast<double>(t.count[kSpanSsdSubmit]));
  L["db.call_ns_per_op"] = Ratio(static_cast<double>(t.total_ns[kSpanDbCall]), ops);
  L["db.checkpoint_ms"] =
      Ratio(static_cast<double>(t.total_ns[kSpanDbCheckpoint]),
            static_cast<double>(t.count[kSpanDbCheckpoint])) / 1e6;
  L["trace.spans"] = static_cast<double>(log.spans().size());
  if (o.spans_csv != nullptr && !WriteSpansCsv(log.spans(), o.spans_csv)) {
    rep->problems.push_back(std::string("cannot write ") + o.spans_csv);
  }
}

// --- device_mix and device_mix_sharded ----------------------------------

/// The seed of one sub-stream: sub-stream 0 of seed s is not sub-stream
/// 1 of seed s - 1.
std::uint64_t SubSeed(const RepOptions& o) {
  return Mix(o.seed * 0x9e3779b97f4a7c15ull, o.sub);
}

Rep RunDeviceMix(const RepOptions& o, bool sharded) {
  Rep rep;
  const std::uint64_t seed = SubSeed(o);
  SpanLog log;
  pb::obs::EngineProfiler profiler;

  const std::uint64_t w0 = WallNs();
  pb::ssd::Config cfg = MixConfig();
  // Traced: tracers[0] serves the host side and the controller; the
  // sharded device adds one per channel shard.
  std::vector<std::unique_ptr<pb::trace::Tracer>> tracers;
  std::vector<pb::trace::Tracer*> channel_tracers;
  pb::blocklayer::BlockLayerConfig blc;
  blc.queue_depth = kMixDepth;
  if (o.traced) {
    const std::uint32_t n = sharded ? 1 + cfg.geometry.channels : 1;
    for (std::uint32_t i = 0; i < n; ++i) {
      tracers.push_back(std::make_unique<pb::trace::Tracer>(1 << 10));
      tracers.back()->set_enabled(true);
      if (i > 0) channel_tracers.push_back(tracers.back().get());
    }
    cfg.tracer = tracers[0].get();
    blc.tracer = tracers[0].get();
  }

  std::unique_ptr<pb::sim::Simulator> sim;
  std::unique_ptr<pb::sim::ShardedEngine> engine;
  std::unique_ptr<pb::ssd::ShardRouter> router;
  std::unique_ptr<TimedDevice> dev;
  pb::sim::Simulator* clock = nullptr;
  if (sharded) {
    const pb::ssd::ShardPlan plan = pb::ssd::ShardPlan::FromConfig(cfg);
    pb::sim::ShardedConfig ec;
    ec.shards = plan.num_shards;
    ec.workers = o.workers;
    ec.lookahead = plan.Lookahead();
    ec.fingerprint = true;
    if (o.traced) ec.observer = &profiler;
    engine = std::make_unique<pb::sim::ShardedEngine>(ec);
    router = std::make_unique<pb::ssd::ShardRouter>(engine.get(), plan);
    dev = std::make_unique<TimedDevice>(router.get(), cfg, channel_tracers, &log);
    clock = router->controller_sim();
  } else {
    sim = std::make_unique<pb::sim::Simulator>();
    sim->EnableFingerprint();
    dev = std::make_unique<TimedDevice>(sim.get(), cfg, &log);
    clock = sim.get();
  }
  pb::blocklayer::BlockLayer blk(clock, dev.get(), blc);
  const std::uint64_t pages = dev->num_blocks();
  DeviceShadow shadow(pages);
  DeviceLoop loop(&shadow, &log, clock, pages, seed);
  loop.set_inline(sharded);
  auto drive = [&] {
    if (sharded) {
      loop.IssueInitial();
      engine->Run();
    } else {
      loop.RunTurns(sim.get());
      sim->Run();  // background work the last IOs left behind
    }
  };

  // Set-up: sequential fill, then one overwrite of every page in a
  // seeded random order, straight into the device at the loop's depth.
  Phase aging;
  aging.kind = Phase::Kind::kAging;
  aging.ops = 2 * pages;
  loop.Begin(dev.get(), aging);
  drive();
  if (loop.failed() != 0) rep.problems.push_back("aging writes failed");
  rep.setup_s = static_cast<double>(WallNs() - w0) * 1e-9;

  const Stack st{dev.get(), &blk, nullptr, sim.get(), engine.get()};
  const Snapshot before = Snap(st);
  const Breakdowns stages_before = Breakdown(tracers);
  if (o.traced) profiler.Reset();

  Phase mix;
  mix.kind = Phase::Kind::kMix;
  mix.ops = kMixOps;
  mix.record = true;
  mix.through_blk = true;
  loop.Begin(&blk, mix);
  log.set_enabled(o.traced);
  const double c0 = CpuSeconds();
  const std::uint64_t t0 = WallNs();
  if (sharded) log.Begin(kSpanEngineRun);
  drive();
  if (sharded) log.End();
  const std::uint64_t t1 = WallNs();
  const double c1 = CpuSeconds();
  log.set_enabled(false);

  rep.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.cpu_s = c1 - c0;
  rep.ops = kMixOps;
  rep.failed = loop.failed();
  const Snapshot d = Delta(Snap(st), before);
  AddSimSample(&rep, loop.read_ns(), loop.write_ns(), loop.sim_elapsed(), d,
               static_cast<double>(dev->Caps().mapping_table_bytes));
  AddDeviceLayers(&rep, d, loop.sim_elapsed(), cfg.geometry.channels);
  auto& L = rep.layer;
  L["workload.racy_reads"] = static_cast<double>(loop.racy_reads());
  L["workload.mismatches"] = static_cast<double>(loop.mismatches());
  if (loop.mismatches() != 0) rep.problems.push_back("a read returned a wrong token");
  L["blocklayer.merges"] = d.at("blocklayer.merges");
  L["blocklayer.ios"] = d.at("blocklayer.submitted");
  L["ftl.map_bytes"] = static_cast<double>(dev->ftl()->MappingTableBytes());
  if (sharded) {
    L["engine.rounds"] = d.at("engine.rounds");
    L["engine.events_per_round"] = Ratio(d.at("sim.events"), d.at("engine.rounds"));
    L["engine.seam_msgs"] = d.at("engine.seam_msgs");
    if (o.traced) {
      double barrier = 0, total = 0, util = 0;
      for (const auto& p : profiler.shard_profiles()) {
        barrier += static_cast<double>(p.barrier_wall_ns);
        total += static_cast<double>(p.busy_wall_ns + p.idle_wall_ns +
                                     p.barrier_wall_ns);
        util += p.Utilization();
      }
      L["engine.barrier_frac"] = Ratio(barrier, total);
      L["engine.shard_util"] =
          Ratio(util, static_cast<double>(profiler.shard_profiles().size()));
    }
  }
  if (o.traced) {
    AddStages(&rep, stages_before, Breakdown(tracers), /*check_identity=*/true,
              sharded ? router->plan().dispatch_ns + router->plan().complete_ns : 0);
    AddSpanLayers(&rep, log, o);
  }

  std::uint64_t fp = sharded ? engine->Fingerprint() : sim->fingerprint();
  for (const auto& [k, v] : rep.sim) fp = Mix(fp, static_cast<std::uint64_t>(v * 1000.0));
  fp = Mix(fp, rep.failed);
  fp = Mix(fp, loop.racy_reads());
  rep.fingerprint = fp;
  return rep;
}

// --- oltp_classic ------------------------------------------------------

Rep RunOltp(const RepOptions& o) {
  Rep rep;
  const std::uint64_t seed = SubSeed(o);
  SpanLog log;
  std::vector<std::unique_ptr<pb::trace::Tracer>> tracers;
  tracers.push_back(std::make_unique<pb::trace::Tracer>(1 << 10));
  pb::trace::Tracer* tracer = tracers[0].get();
  tracer->set_enabled(true);

  const std::uint64_t w0 = WallNs();
  pb::sim::Simulator sim;
  sim.EnableFingerprint();
  pb::ssd::Config cfg = OltpConfig();
  if (o.traced) cfg.tracer = tracer;
  TimedDevice dev(&sim, cfg, &log);
  pb::db::StorageConfig sc;
  sc.wiring = pb::db::Wiring::kClassic;
  sc.buffer_frames = kBufferFrames;
  if (o.traced) sc.block_layer.tracer = tracer;
  pb::db::StorageManager db(&sim, &dev, sc);
  if (o.traced) db.store()->set_tracer(tracer);

  std::uint64_t setup_failures = 0;
  auto wait = [&](auto&& start) {
    bool fired = false;
    pb::Status out = pb::Status::Internal("never completed");
    start([&](pb::Status st) {
      out = std::move(st);
      fired = true;
    });
    sim.RunUntilPredicate([&] { return fired; });
    if (!out.ok()) std::fprintf(stderr, "set-up step failed: %s\n", out.ToString().c_str());
    return out;
  };
  if (!wait([&](auto cb) { db.Bootstrap(std::move(cb)); }).ok()) ++setup_failures;

  // Bulk load keys [0, kBulkKeys), one WAL record per kBulkBatch keys,
  // checkpointing at the measured phase's cadence (the pool is no-steal:
  // dirty pages leave it only through a checkpoint), then a final
  // checkpoint puts the whole tree on flash.
  pb::Rng load_rng(seed ^ 0x6c6f6164ull);
  std::vector<std::uint64_t> shadow(kBulkKeys, 0);  // 0 = absent
  for (std::uint64_t base = 0, commits = 0; base < kBulkKeys;
       base += kBulkBatch) {
    if (++commits % kCheckpointEvery == 0 &&
        !wait([&](auto cb) { db.Checkpoint(std::move(cb)); }).ok()) {
      ++setup_failures;
    }
    std::vector<pb::db::WalOp> ops;
    for (std::uint64_t k = base; k < std::min(base + kBulkBatch, kBulkKeys); ++k) {
      const std::uint64_t v = load_rng.Next() | 1;
      ops.push_back({pb::db::WalOp::Kind::kPut, k, v});
      shadow[k] = v;
    }
    if (!wait([&](auto cb) { db.CommitBatch(std::move(ops), std::move(cb)); }).ok()) {
      ++setup_failures;
    }
  }
  if (!wait([&](auto cb) { db.Checkpoint(std::move(cb)); }).ok()) ++setup_failures;
  sim.Run();
  if (setup_failures != 0) rep.problems.push_back("bulk load failed");
  rep.setup_s = static_cast<double>(WallNs() - w0) * 1e-9;

  const Stack st{&dev,
                 dynamic_cast<pb::blocklayer::BlockLayer*>(db.store()->data_path()),
                 &db, &sim, nullptr};
  const Snapshot before = Snap(st);
  const Breakdowns stages_before = Breakdown(tracers);

  // Keys whose writes failed since their last successful one: each
  // failed write may or may not have taken effect.
  std::map<std::uint64_t, std::vector<std::uint64_t>> uncertain;
  auto matches = [&](std::uint64_t key, std::uint64_t got) {
    if (got == shadow[key]) return true;
    const auto it = uncertain.find(key);
    return it != uncertain.end() &&
           std::find(it->second.begin(), it->second.end(), got) != it->second.end();
  };

  pb::Rng rng(seed ^ 0x6f6c7470ull);
  std::vector<std::uint64_t> read_ns, write_ns;
  std::uint64_t failed = 0, mismatches = 0, checkpoint_failures = 0;
  const SimTime sim0 = sim.Now();
  SimTime sim_last = sim0;
  log.set_enabled(o.traced);
  const double c0 = CpuSeconds();
  const std::uint64_t t0 = WallNs();
  for (std::uint64_t i = 0; i < kOltpOps; ++i) {
    log.set_op(i);
    ScopedSpan root(&log, kSpanOp);
    const std::uint32_t dice = static_cast<std::uint32_t>(rng.Uniform(100));
    const std::uint64_t key = rng.Uniform(kBulkKeys);
    bool fired = false;
    pb::Status status = pb::Status::Ok();
    std::uint64_t got = 0;
    bool absent = false;
    SimTime end = 0;
    const SimTime start = sim.Now();
    const bool is_get = dice < kGetPercent;
    const bool is_put = !is_get && dice < kGetPercent + kPutPercent;
    const std::uint64_t value = is_put ? (rng.Next() | 1) : 0;
    {
      ScopedSpan call(&log, kSpanDbCall);
      if (is_get) {
        db.Get(key, [&](pb::StatusOr<std::uint64_t> r) {
          // NotFound("key N") is the tree's answer for an absent key; any
          // other status, a NotFound from the device included, is an error.
          if (r.ok()) {
            got = *r;
          } else if (r.status().IsNotFound() &&
                     r.status().message().rfind("key ", 0) == 0) {
            absent = true;
          } else {
            status = r.status();
          }
          end = sim.Now();
          fired = true;
        });
      } else {
        auto cb = [&](pb::Status s) {
          status = std::move(s);
          end = sim.Now();
          fired = true;
        };
        if (is_put) {
          db.Put(key, value, cb);
        } else {
          db.Delete(key, cb);
        }
      }
    }
    {
      ScopedSpan run(&log, kSpanSimRun);
      sim.RunUntilPredicate([&] { return fired; });
    }
    bool good = fired && status.ok();
    if (fired) sim_last = end;
    if (is_get) {
      if (good && !matches(key, absent ? 0 : got)) {
        good = false;
        ++mismatches;
      }
      if (fired) read_ns.push_back(end - start);
    } else {
      if (good) {
        shadow[key] = value;
        uncertain.erase(key);
      } else {
        uncertain[key].push_back(value);
        if (failed < kFailuresShown) {
          std::fprintf(stderr, "op %llu (%s key %llu) failed: %s\n",
                       static_cast<unsigned long long>(i), is_put ? "put" : "delete",
                       static_cast<unsigned long long>(key),
                       fired ? status.ToString().c_str() : "never completed");
        }
      }
      if (fired) write_ns.push_back(end - start);
    }
    if (!good) ++failed;
    if (i % kCheckpointEvery == kCheckpointEvery - 1) {
      ScopedSpan ckpt(&log, kSpanDbCheckpoint);
      bool done = false;
      pb::Status cs = pb::Status::Internal("never completed");
      db.Checkpoint([&](pb::Status s) {
        cs = std::move(s);
        done = true;
      });
      ScopedSpan run(&log, kSpanSimRun);
      sim.RunUntilPredicate([&] { return done; });
      if (!cs.ok()) ++checkpoint_failures;
    }
  }
  sim.Run();
  const std::uint64_t t1 = WallNs();
  const double c1 = CpuSeconds();
  log.set_enabled(false);

  rep.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.cpu_s = c1 - c0;
  rep.ops = kOltpOps;
  rep.failed = failed;
  if (checkpoint_failures != 0) rep.problems.push_back("a checkpoint failed");
  const Snapshot d = Delta(Snap(st), before);
  AddSimSample(&rep, &read_ns, &write_ns, sim_last - sim0, d,
               static_cast<double>(dev.Caps().mapping_table_bytes));
  AddDeviceLayers(&rep, d, sim_last - sim0, cfg.geometry.channels);

  // After the run a full scan must return exactly the shadow's live keys.
  // A scan that fails counts as one more failure; one that reports
  // success with the wrong keys or values also fails the check.
  std::uint64_t scan_mismatches = 0;
  bool scan_failed = false;
  {
    bool done = false;
    db.Scan(0, ~0ull,
            [&](pb::StatusOr<std::vector<std::pair<std::uint64_t, std::uint64_t>>> r) {
              done = true;
              if (!r.ok()) {
                scan_failed = true;
                return;
              }
              std::vector<bool> seen(kBulkKeys, false);
              for (const auto& [k, v] : *r) {
                if (k >= kBulkKeys || !matches(k, v) || seen[k]) {
                  ++scan_mismatches;
                  continue;
                }
                seen[k] = true;
              }
              for (std::uint64_t k = 0; k < kBulkKeys; ++k) {
                if (!seen[k] && !matches(k, 0)) ++scan_mismatches;
              }
            });
    sim.RunUntilPredicate([&] { return done; });
    if (!done) scan_failed = true;
  }
  if (scan_failed || scan_mismatches != 0) ++rep.failed;
  if (scan_mismatches != 0) {
    rep.problems.push_back("final scan returned OK but " +
                           std::to_string(scan_mismatches) +
                           " keys differ from the shadow");
  }
  if (mismatches != 0) rep.problems.push_back("a Get returned a wrong value");

  auto& L = rep.layer;
  L["workload.mismatches"] = static_cast<double>(mismatches);
  L["db.scan_failed"] = scan_failed ? 1 : 0;
  L["db.scan_mismatches"] = static_cast<double>(scan_mismatches);
  L["db.checkpoints"] = d.at("db.checkpoints");
  const double bp_accesses = d.at("db.bp_hits") + d.at("db.bp_misses");
  L["db.bp_accesses"] = bp_accesses;
  L["db.bp_hit_rate"] = Ratio(d.at("db.bp_hits"), bp_accesses);
  L["db.bp_evictions"] = d.at("db.bp_evictions");
  L["db.wal_commits"] = d.at("db.wal_commits");
  L["db.wal_bytes_per_commit"] = Ratio(d.at("core.sync_bytes"), d.at("db.wal_commits"));
  L["db.wal_pad_ratio"] = Ratio(d.at("core.sync_padded_bytes"), d.at("core.sync_bytes"));
  L["core.sync_bytes"] = d.at("core.sync_bytes");
  L["ftl.map_bytes"] = static_cast<double>(dev.ftl()->MappingTableBytes());
  L["blocklayer.merges"] = d.at("blocklayer.merges");
  L["blocklayer.ios"] = d.at("blocklayer.submitted");
  if (o.traced) {
    AddStages(&rep, stages_before, Breakdown(tracers), /*check_identity=*/false, 0);
    AddSpanLayers(&rep, log, o);
  }

  std::uint64_t fp = sim.fingerprint();
  for (const auto& [k, v] : rep.sim) fp = Mix(fp, static_cast<std::uint64_t>(v * 1000.0));
  fp = Mix(fp, rep.failed);
  rep.fingerprint = fp;
  return rep;
}

// ---------------------------------------------------------------------------
// Metric tables. The names, units and order match BENCHMARK.json.

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},         {"cpu_us_per_op", "us"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
    {"sim_ops_per_s", "1/sim_s"}, {"sim_read_p50_us", "sim_us"},
    {"sim_read_p999_us", "sim_us"},
    {"sim_write_p50_us", "sim_us"}, {"sim_write_p999_us", "sim_us"},
    {"write_amp", "ratio"},       {"map_bytes", "B"},
};

const MetricDef kPerLayer[] = {
    {"workload.ops_attempted", "count"},
    {"workload.read_ops", "count"},
    {"workload.write_ops", "count"},
    {"workload.failed_frac", "frac"},
    {"workload.racy_reads", "count"},
    {"workload.mismatches", "count"},
    {"bench.self_ms", "ms"},
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.run_self_ms", "ms"},
    {"engine.rounds", "count"},
    {"engine.events_per_round", "count"},
    {"engine.seam_msgs", "count"},
    {"engine.barrier_frac", "frac"},
    {"engine.shard_util", "frac"},
    {"blocklayer.submit_ns_per_io", "ns"},
    {"blocklayer.ios", "count"},
    {"blocklayer.merges", "count"},
    {"ssd.submit_ns_per_io", "ns"},
    {"ssd.ios", "count"},
    {"ssd.buffer_read_hits", "count"},
    {"ssd.gc_stall_read_us", "sim_us"},
    {"ssd.channel_busy_frac", "frac"},
    {"ftl.host_pages", "count"},
    {"ftl.gc_page_moves", "count"},
    {"ftl.gc_erases", "count"},
    {"ftl.moves_per_host_write", "ratio"},
    {"ftl.map_bytes", "B"},
    {"flash.page_reads", "count"},
    {"flash.page_programs", "count"},
    {"flash.erases", "count"},
    {"stage.ios", "count"},
    {"stage.queue_wait_us", "sim_us"},
    {"stage.schedule_us", "sim_us"},
    {"stage.map_us", "sim_us"},
    {"stage.gc_stall_us", "sim_us"},
    {"stage.transfer_us", "sim_us"},
    {"stage.cell_op_us", "sim_us"},
    {"stage.app_us", "sim_us"},
    {"stage.seam_us", "sim_us"},
    {"trace.stage_identity_gap_ns", "ns"},
    {"trace.spans", "count"},
    {"trace.untraced_ops_per_s", "1/s"},
    {"trace.traced_ops_per_s", "1/s"},
    {"trace.overhead_frac", "frac"},
    {"db.call_ns_per_op", "ns"},
    {"db.scan_failed", "bool"},
    {"db.scan_mismatches", "count"},
    {"db.checkpoints", "count"},
    {"db.checkpoint_ms", "ms"},
    {"db.bp_accesses", "count"},
    {"db.bp_hit_rate", "frac"},
    {"db.bp_evictions", "count"},
    {"db.wal_commits", "count"},
    {"db.wal_bytes_per_commit", "B"},
    {"db.wal_pad_ratio", "ratio"},
    {"core.sync_bytes", "B"},
    {"check.same_seed_identical", "bool"},
    {"check.other_seed_differs", "bool"},
    {"check.workers_identical", "bool"},
    {"check.traced_equals_untraced", "bool"},
    {"check.span_tiling", "bool"},
};

// ---------------------------------------------------------------------------

enum class Workload { kDeviceMix, kOltpClassic, kDeviceMixSharded };

bool ParseWorkload(const std::string& s, Workload* w) {
  if (s == "device_mix") *w = Workload::kDeviceMix;
  else if (s == "oltp_classic") *w = Workload::kOltpClassic;
  else if (s == "device_mix_sharded") *w = Workload::kDeviceMixSharded;
  else return false;
  return true;
}

std::uint32_t ShardWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(kMaxShardWorkers, hw == 0 ? 1u : hw));
}

Rep RunOnce(Workload w, RepOptions o) {
  switch (w) {
    case Workload::kDeviceMix:
      return RunDeviceMix(o, /*sharded=*/false);
    case Workload::kDeviceMixSharded:
      if (o.workers == 0) o.workers = ShardWorkers();
      return RunDeviceMix(o, /*sharded=*/true);
    case Workload::kOltpClassic:
      return RunOltp(o);
  }
  return Rep{};
}

bool SameSim(const Rep& a, const Rep& b) { return a.sim == b.sim && a.failed == b.failed; }

void PrintMetric(std::string* out, bool* first, const char* name, double value,
                 const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                *first ? "" : ", ", name, std::isfinite(value) ? value : 0.0, unit);
  *first = false;
  *out += buf;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  const char* spans_csv = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") workload_name = val;
    else if (flag == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(val, nullptr);
    else if (flag == "--trace") trace = std::atoi(val);
    else if (flag == "--spans-out") spans_csv = val;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Workload w;
  if (!ParseWorkload(workload_name, &w) || (trace != 0 && trace != 1) ||
      !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload device_mix|oltp_classic|"
                 "device_mix_sharded --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n");
    return 2;
  }

  std::vector<std::string> problems;
  // Every op of every workload must succeed: a failed op is a wrong
  // output, so any repetition with one makes the run incorrect.
  auto collect = [&](const Rep& r, const char* what) {
    for (const auto& p : r.problems) problems.push_back(std::string(what) + ": " + p);
    if (r.failed != 0) {
      problems.push_back(std::string(what) + ": " + std::to_string(r.failed) +
                         " ops failed");
    }
  };

  // Repetitions until the run has lasted --seconds. Untraced: every
  // sub-stream once, then again from the first, so each run repeats at
  // least one sub-stream and checks it reproduces. Traced: sub-stream 0
  // only, alternating untraced and traced, at least two of each.
  std::vector<Rep> plain, traced;
  const std::uint64_t start = WallNs();
  auto elapsed = [&] { return static_cast<double>(WallNs() - start) * 1e-9; };
  bool same_seed = true;
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = trace == 1 && i % 2 == 1;
    RepOptions o;
    o.seed = seed;
    o.sub = trace == 0 ? static_cast<std::uint32_t>(i % kSubSeeds) : 0;
    o.traced = trace_this;
    if (trace_this) o.spans_csv = spans_csv;
    Rep r = RunOnce(w, o);
    collect(r, trace_this ? "traced" : "untraced");
    if (!trace_this && plain.size() >= (trace == 0 ? kSubSeeds : 1)) {
      const Rep& first_run = plain[trace == 0 ? o.sub : 0];
      same_seed = same_seed && r.fingerprint == first_run.fingerprint &&
                  SameSim(r, first_run);
      // Only the first run of each sub-stream is pooled; free the repeat's
      // samples so peak RSS does not grow with the repetition count.
      r.sample = SimSample{};
    }
    (trace_this ? traced : plain).push_back(std::move(r));
    const bool enough = trace == 0 ? plain.size() > kSubSeeds
                                   : plain.size() >= 2 && traced.size() >= 2;
    if (enough && elapsed() >= seconds) break;
  }
  if (!same_seed) problems.push_back("two runs of one seed differ");
  const Rep& ref = plain.front();

  auto med = [](const std::vector<Rep>& reps, auto f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return Median(v);
  };
  auto ops_per_s = [](const Rep& r) { return static_cast<double>(r.ops) / r.wall_s; };

  std::string metrics;
  bool first = true;
  std::uint64_t attempted = 0, failed = 0;
  if (trace == 0) {
    std::vector<const SimSample*> samples;
    for (std::uint32_t i = 0; i < kSubSeeds; ++i) {
      samples.push_back(&plain[i].sample);
      attempted += plain[i].ops;
      failed += plain[i].failed;
    }
    std::map<std::string, double> e2e;
    e2e["ops_per_s"] = med(plain, ops_per_s);
    e2e["cpu_us_per_op"] =
        med(plain, [](const Rep& r) { return r.cpu_s * 1e6 / static_cast<double>(r.ops); });
    e2e["setup_s"] = med(plain, [](const Rep& r) { return r.setup_s; });
    e2e["peak_rss_mb"] = PeakRssMb();
    for (const auto& [k, v] : SimMetrics(samples, &problems)) e2e[k] = v;
    for (const MetricDef& m : kEndToEnd) PrintMetric(&metrics, &first, m.name, e2e.at(m.name), m.unit);
    std::uint64_t reads = 0, writes = 0;
    for (const SimSample* x : samples) {
      reads += x->read_ns.size();
      writes += x->write_ns.size();
    }
    std::printf("%s: %zu repetitions; sim metrics pool %u sub-streams of %llu "
                "ops: %llu read and %llu write latency samples\n",
                workload_name.c_str(), plain.size(), kSubSeeds,
                static_cast<unsigned long long>(ref.ops),
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(writes));
  } else {
    // Self-tests that need extra repetitions.
    RepOptions other;
    other.seed = seed + 1;
    const Rep alt = RunOnce(w, other);
    collect(alt, "other seed");
    const bool other_differs = alt.fingerprint != ref.fingerprint;
    if (!other_differs) problems.push_back("a different seed gave the same fingerprint");

    bool workers_same = true;
    if (w == Workload::kDeviceMixSharded) {
      RepOptions one;
      one.seed = seed;
      one.workers = 1;
      const Rep single = RunOnce(w, one);
      collect(single, "one worker");
      workers_same = single.fingerprint == ref.fingerprint && SameSim(single, ref);
      if (!workers_same) problems.push_back("1 worker and N workers differ");
    }

    bool traced_same = true;
    bool tiled = true;
    for (const Rep& t : traced) {
      traced_same = traced_same && t.fingerprint == ref.fingerprint && SameSim(t, ref);
      tiled = tiled && t.spans.tiled;
    }
    if (!traced_same) problems.push_back("traced run differs from untraced run");

    const Rep& tr = traced.back();
    std::map<std::string, double> L = tr.layer;
    const double untraced_ops = med(plain, ops_per_s);
    const double traced_ops = med(traced, ops_per_s);
    L["workload.ops_attempted"] = static_cast<double>(tr.ops);
    L["workload.failed_frac"] = Ratio(static_cast<double>(tr.failed), static_cast<double>(tr.ops));
    L["sim.host_ns_per_event"] =
        med(plain, [](const Rep& r) { return r.layer.at("sim.host_ns_per_event"); });
    L["trace.untraced_ops_per_s"] = untraced_ops;
    L["trace.traced_ops_per_s"] = traced_ops;
    L["trace.overhead_frac"] = Ratio(untraced_ops, traced_ops) - 1.0;
    L["check.same_seed_identical"] = same_seed ? 1 : 0;
    L["check.other_seed_differs"] = other_differs ? 1 : 0;
    L["check.workers_identical"] = workers_same ? 1 : 0;
    L["check.traced_equals_untraced"] = traced_same ? 1 : 0;
    L["check.span_tiling"] = tiled ? 1 : 0;
    for (const MetricDef& m : kPerLayer) {
      const auto it = L.find(m.name);
      PrintMetric(&metrics, &first, m.name, it == L.end() ? 0.0 : it->second, m.unit);
    }
    std::printf("%s: %zu untraced and %zu traced repetitions; tracing overhead "
                "%.1f%% of traced ops/s (%.0f vs %.0f ops/s); spans tile their "
                "roots: %s\n",
                workload_name.c_str(), plain.size(), traced.size(),
                100.0 * L["trace.overhead_frac"], untraced_ops, traced_ops,
                tiled ? "yes" : "no");
  }

  for (const auto& p : problems) std::printf("check failed: %s\n", p.c_str());
  if (trace == 1) {
    attempted = traced.back().ops;
    failed = traced.back().failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
