// perfbench_driver: ONE trial of one benchmark workload.
//
//   perfbench_driver --workload sim-wide --seed 7 --tmp DIR
//                    [--trace] [--spans FILE] [--ops N] [--rate R]
//                    [--option key=value]... [--selftest-vacuity]
//
// A trial builds the workload's system, runs a warm-up phase on it, then a
// measured phase of a FIXED number of open-loop arrivals, checks the whole
// history for strict serializability (Lemma-20 tag order) and prints one
// flat JSON object of raw metrics as its last stdout line.  perfbench/run.py
// repeats trials and reports medians.
//
// Why a fixed op count and not a fixed duration: CPU per op in this code base
// grows with run length (the history recorder scans every recorded
// transaction on each finish) and the tag-order check is quadratic in it, so
// a duration-bounded run would measure how fast the host happened to be as
// much as the code.  A fixed count makes every trial do the same work.
//
// --trace turns on the per-layer measurements (see perfbench/NOTES.md): a
// forwarding MessageObserver times the codec, WireStats, AuditCapture and a
// standalone VersionStore/CoorList replay around each observed message, and
// on the simulator this program calls step() itself to time the delivered
// handler against the step.  Spans (name, txn, parent, wall and virtual
// start/end) stay in memory and are written to --spans at the end.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/capture.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "history/history.hpp"
#include "metrics/wire_stats.hpp"
#include "msg/codec.hpp"
#include "proto/version_store.hpp"
#include "runtime/fleet.hpp"
#include "runtime/socket.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

/// User+sys CPU of every thread of this process, in ns.
std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// --- workloads ------------------------------------------------------------

struct Workload {
  std::string protocol;
  bool tcp{false};
  SystemConfig system;
  BuildOptions options;
  TrafficModel model;
  TimeNs interval_ns{1'000'000};
  std::size_t arrival_shards{1};
  std::size_t warmup_ops{0};
  std::size_t measured_ops{0};

  DriverOptions driver_options(std::size_t ops) const {
    DriverOptions o;
    o.mode = ArrivalMode::kOpenLoop;
    o.total_ops = ops;
    o.arrival_interval_ns = interval_ns;
    o.traffic = model;
    o.arrival_shards = arrival_shards;
    return o;
  }
};

TrafficModel model(double theta, double read_fraction, SpanDist read_span) {
  TrafficModel m;
  m.zipf_theta = theta;
  m.permute_ranks = theta > 0;
  m.read_fraction = read_fraction;
  m.read_span = read_span;
  m.write_span = SpanDist::fixed(2);
  m.logical_clients = 1'000'000;
  return m;
}

// The three workloads; perfbench/NOTES.md records why each exists.
Workload make_workload(const std::string& name) {
  const SpanDist geometric{SpanKind::kGeometric, 1, 4, 0.5};
  Workload w;
  if (name == "sim-wide") {
    w.protocol = "adaptive";
    w.system = SystemConfig{4096, 4, 4, 4, PlacementKind::kRange};
    w.model = model(0.0, 0.9, geometric);
    w.interval_ns = 1'000'000;  // 1000 arrivals/s of virtual time
    w.arrival_shards = 4;
    w.warmup_ops = 2000;
    w.measured_ops = 10000;
  } else if (name == "sim-writes") {
    w.protocol = "algo-c";
    w.system = SystemConfig{64, 4, 4, 4, PlacementKind::kRange};
    w.options.set("replicas", 2);  // no wal_dir: in-memory WALs
    w.model = model(0.99, 0.1, geometric);
    w.interval_ns = 4'000'000;  // 250 arrivals/s of virtual time
    w.arrival_shards = 4;
    w.warmup_ops = 2000;
    w.measured_ops = 10000;
  } else if (name == "tcp-paced") {
    w.protocol = "algo-b";
    w.tcp = true;
    // 2 readers + 1 writer = 3 client nodes, so the client's executors plus
    // its I/O thread fit in 4 cores.
    w.system = SystemConfig{64, 2, 1, 3, PlacementKind::kRange};
    w.model = model(0.0, 0.9, SpanDist::fixed(2));
    w.interval_ns = 1'000'000;  // 1000 arrivals/s of wall clock
    w.arrival_shards = 1;
    w.warmup_ops = 2000;
    w.measured_ops = 2500;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (sim-wide, sim-writes, tcp-paced)");
  }
  return w;
}

// --- output ---------------------------------------------------------------

/// Flat metric map printed as one JSON object.
class Output {
 public:
  void num(const std::string& key, double v) { nums_[key] = v; }
  void str(const std::string& key, std::string v) { strs_[key] = std::move(v); }
  void samples(const std::string& key, const std::vector<TimeNs>& v) {
    std::string text = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) text += ',';
      text += std::to_string(v[i]);
    }
    raws_[key] = text + "]";
  }
  double get(const std::string& key) const {
    auto it = nums_.find(key);
    return it == nums_.end() ? 0.0 : it->second;
  }

  std::string json() const {
    std::ostringstream o;
    o << "{";
    bool first = true;
    for (const auto& [k, v] : strs_) {
      o << (first ? "" : ", ") << "\"" << k << "\": \"" << v << "\"";
      first = false;
    }
    for (const auto& [k, v] : raws_) {
      o << (first ? "" : ", ") << "\"" << k << "\": " << v;
      first = false;
    }
    for (const auto& [k, v] : nums_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      o << (first ? "" : ", ") << "\"" << k << "\": " << buf;
      first = false;
    }
    o << "}";
    return o.str();
  }

 private:
  std::map<std::string, double> nums_;
  std::map<std::string, std::string> strs_;
  std::map<std::string, std::string> raws_;
};

struct Fnv {
  std::uint64_t h{1469598103934665603ull};
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
  }
};

/// Nearest-rank percentile of an unsorted sample (ns -> us).
double percentile_us(std::vector<TimeNs> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]) / 1000.0;
}

// --- per-layer tracing ----------------------------------------------------

struct Span {
  const char* name{""};
  TxnId txn{kInvalidTxn};
  std::int64_t parent{-1};
  std::uint64_t wall_start{0}, wall_end{0};
  TimeNs virt_start{0}, virt_end{0};
};

struct PayloadStats {
  std::uint64_t coded{0}, bytes{0}, encode_ns{0}, decode_ns{0};
  std::uint64_t delivers{0}, handler_ns{0}, handler_sends{0};
};

struct TimedCount {
  std::uint64_t n{0}, ns{0};
  void add(std::uint64_t dt) {
    ++n;
    ns += dt;
  }
  double mean() const { return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n); }
};

/// Standalone replay of the server-bound requests into a fresh
/// VersionStore per object and one CoorList, timing each layer call.
class ProtoReplay {
 public:
  explicit ProtoReplay(std::size_t k) : k_(k) { list_.emplace(k); }

  void feed(NodeId from, const Message& m) {
    if (const auto* wv = std::get_if<WriteValReq>(&m.payload)) {
      VersionStore& s = stores_[wv->obj];
      const auto t0 = wall_ns();
      s.insert(wv->key, wv->value);
      insert_.add(wall_ns() - t0);
      live_max_ = std::max(live_max_, s.size());
    } else if (const auto* rv = std::get_if<ReadValReq>(&m.payload)) {
      get(rv->obj, rv->key, rv->watermark);
    } else if (const auto* rb = std::get_if<ReadValBatchReq>(&m.payload)) {
      for (const auto& e : rb->entries) get(e.obj, e.key, rb->watermark);
    } else if (const auto* rs = std::get_if<ReadValsReq>(&m.payload)) {
      get_all(rs->obj, 0);
    } else if (const auto* pb = std::get_if<ReadValsBatchReq>(&m.payload)) {
      for (ObjectId obj : pb->objs) get_all(obj, pb->watermark);
    } else if (const auto* uc = std::get_if<UpdateCoorReq>(&m.payload)) {
      if (uc->mask.size() != k_) return;
      const auto t0 = wall_ns();
      list_->push(uc->key, uc->mask);
      push_.add(wall_ns() - t0);
    } else if (std::holds_alternative<GetTagArrReq>(m.payload)) {
      // What every Pseudocode-6 coordinator does per get-tag-arr: register
      // the reader's floor and materialize latest[] over all k objects.
      const auto t0 = wall_ns();
      list_->register_reader(from, m.txn);
      std::vector<WriteKey> latest(k_);
      for (std::size_t i = 0; i < k_; ++i) latest[i] = list_->latest(static_cast<ObjectId>(i));
      tag_arr_.add(wall_ns() - t0);
      sink_ += latest.back().seq;
    } else if (std::holds_alternative<FinalizeReq>(m.payload) ||
               std::holds_alternative<FinalizeCoorReq>(m.payload) ||
               std::holds_alternative<ReadDoneReq>(m.payload)) {
      if (const auto* fin = std::get_if<FinalizeReq>(&m.payload)) {
        if (!stores_[fin->obj].has(fin->key)) return;  // inserted before this replay began
      }
      handle_gc_notice(from, m, /*gc=*/true, /*is_coordinator=*/true, stores_, list_);
    }
  }

  void report(Output& out) const {
    out.num("proto.coorlist.push_ns", push_.mean());
    out.num("proto.coorlist.tag_arr_ns", tag_arr_.mean());
    out.num("proto.versionstore.insert_ns", insert_.mean());
    out.num("proto.versionstore.get_ns", get_.mean());
    out.num("proto.versionstore.live_max", static_cast<double>(live_max_));
  }

 private:
  void get(ObjectId obj, const WriteKey& key, Tag watermark) {
    VersionStore& s = stores_[obj];
    const auto t0 = wall_ns();
    s.advance_watermark(watermark);
    sink_ += static_cast<std::uint64_t>(s.try_get(key).value_or(kInitialValue));
    get_.add(wall_ns() - t0);
  }
  void get_all(ObjectId obj, Tag watermark) {
    VersionStore& s = stores_[obj];
    const auto t0 = wall_ns();
    if (watermark > 0) s.advance_watermark(watermark);
    sink_ += s.all().size();
    get_.add(wall_ns() - t0);
    live_max_ = std::max(live_max_, s.size());
  }

  std::size_t k_;
  std::map<ObjectId, VersionStore> stores_;
  std::optional<CoorList> list_;
  TimedCount insert_, get_, push_, tag_arr_;
  std::size_t live_max_{0};
  std::uint64_t sink_{0};
};

/// The traced run's forwarding observer.  Forwards every send to WireStats
/// (timed), feeds it to a standalone AuditCapture (timed), round-trips it
/// through the codec (timed per payload type) and replays server-bound
/// requests into ProtoReplay.  Thread-safe (NetRuntime calls it from every
/// executor and I/O thread); on the simulator the lock is uncontended.
class Tracer final : public MessageObserver {
 public:
  /// `remote_servers`: the server nodes run in other processes, so their
  /// requests are replayed as this process sends them and the messages they
  /// send are timed through the codec as they are delivered here.
  Tracer(WireStats& wire, std::size_t k, const std::string& audit_dir, bool remote_servers,
         std::function<TimeNs()> virt_now)
      : wire_(wire), replay_(k), remote_servers_(remote_servers),
        virt_now_(std::move(virt_now)) {
    audit::CaptureOptions copts;
    copts.dir = audit_dir;
    copts.flush_interval_ns = 0;  // no flusher thread: rings drain at close()
    audit_ = std::make_unique<audit::AuditCapture>(copts);
  }

  /// Until activated (the measured phase), sends only reach WireStats.
  void set_active(bool on) { active_.store(on, std::memory_order_release); }

  void on_send(NodeId from, NodeId to, const Message& m, std::size_t bytes) override {
    if (!active_.load(std::memory_order_acquire)) {
      wire_.on_send(from, to, m, bytes);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const auto t0 = wall_ns();
    wire_.on_send(from, to, m, bytes);
    const auto t1 = wall_ns();
    audit_->on_send(from, to, m, bytes);
    const auto t2 = wall_ns();
    step_codec_ns_ += time_codec(m, bytes);
    if (remote_servers_) replay_.feed(from, m);
    const auto t3 = wall_ns();
    wire_on_send_.add(t1 - t0);
    audit_on_send_.add(t2 - t1);
    step_observer_ns_ += (t3 - t0);
    ++step_sends_;
    const TimeNs v = virt_now_();
    spans_.push_back(Span{payload_name(m.payload), m.txn, step_span_, t0, t3, v, v});
    if (step_span_ >= 0 && spans_[static_cast<std::size_t>(step_span_)].txn == kInvalidTxn) {
      spans_[static_cast<std::size_t>(step_span_)].txn = m.txn;
    }
  }

  void on_deliver(NodeId from, NodeId /*to*/, const Message& m) override {
    if (!active_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mu_);
    const auto t0 = wall_ns();
    delivered_ = payload_name(m.payload);
    deliver_wall_ = t0;
    if (step_span_ >= 0) spans_[static_cast<std::size_t>(step_span_)].txn = m.txn;
    if (remote_servers_) {
      time_codec(m, encoded_size(m));
    } else {
      replay_.feed(from, m);
    }
    const auto t1 = wall_ns();
    step_observer_ns_ += t1 - t0;
    if (step_span_ < 0) {
      const TimeNs v = virt_now_();
      spans_.push_back(Span{delivered_, m.txn, -1, t0, t1, v, v});
    }
  }

  /// Round-trips `m` through the codec, timing each half; returns the total.
  std::uint64_t time_codec(const Message& m, std::size_t bytes) {
    const auto t0 = wall_ns();
    const std::vector<std::uint8_t> buf = encode_message(m);
    const auto t1 = wall_ns();
    sink_ += decode_message(buf).txn;
    const auto t2 = wall_ns();
    PayloadStats& ps = payloads_[payload_name(m.payload)];
    ++ps.coded;
    ps.bytes += bytes;
    ps.encode_ns += t1 - t0;
    ps.decode_ns += t2 - t1;
    return t2 - t0;
  }

  // --- simulator step bracketing (single-threaded) -------------------------

  void begin_step(std::uint64_t wall, TimeNs virt) {
    step_span_ = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{"task", kInvalidTxn, -1, wall, 0, virt, 0});
    delivered_ = nullptr;
    step_codec_ns_ = step_observer_ns_ = step_sends_ = 0;
  }

  void end_step(std::uint64_t wall, TimeNs virt) {
    Span& s = spans_[static_cast<std::size_t>(step_span_)];
    s.wall_end = wall;
    s.virt_end = virt;
    if (delivered_ != nullptr) {
      s.name = delivered_;
      ++deliver_steps_;
      pop_ns_ += deliver_wall_ - s.wall_start;
      // Handler window: from on_deliver to the end of the step, minus the
      // observer's own work and the simulator's codec round trip of each
      // send (estimated by this observer's timed round trip).
      const std::uint64_t window = wall - deliver_wall_;
      const std::uint64_t minus = step_observer_ns_ + step_codec_ns_;
      PayloadStats& ps = payloads_[delivered_];
      ++ps.delivers;
      ps.handler_ns += window > minus ? window - minus : 0;
      ps.handler_sends += step_sends_;
      actions_in_deliver_steps_ += 1 + step_sends_;
    }
    step_span_ = -1;
  }

  /// `append_ns`: the cost of one trace append, measured after the run.
  void report(Output& out, double append_ns, std::uint64_t writes,
              std::uint64_t repl_msgs) const {
    out.num("metrics.wire_on_send_ns", wire_on_send_.mean());
    out.num("audit.on_send_ns", audit_on_send_.mean());
    std::uint64_t total_bytes = 0;
    for (const auto& [name, ps] : payloads_) total_bytes += ps.bytes;
    for (const auto& [n, ps] : payloads_) {
      if (ps.coded > 0) {
        const double c = static_cast<double>(ps.coded);
        out.num("msg.encode_ns." + n, static_cast<double>(ps.encode_ns) / c);
        out.num("msg.decode_ns." + n, static_cast<double>(ps.decode_ns) / c);
        out.num("msg.bytes." + n, static_cast<double>(ps.bytes) / c);
        out.num("msg.byte_share." + n,
                total_bytes ? static_cast<double>(ps.bytes) / total_bytes : 0.0);
      }
      if (ps.delivers > 0) {
        // Less the trace appends of the Recv and of each send.
        const double d = static_cast<double>(ps.delivers);
        out.num("proto.handler_ns." + n,
                std::max(0.0, static_cast<double>(ps.handler_ns) / d -
                                  append_ns * (1.0 + static_cast<double>(ps.handler_sends) / d)));
      }
    }
    if (deliver_steps_ > 0) {
      const double actions_per_step =
          static_cast<double>(actions_in_deliver_steps_) / static_cast<double>(deliver_steps_);
      out.num("sim.step_self_ns",
              static_cast<double>(pop_ns_) / static_cast<double>(deliver_steps_) +
                  actions_per_step * append_ns);
    }
    replay_.report(out);
    out.num("proto.replica.msgs_per_write",
            writes ? static_cast<double>(repl_msgs) / static_cast<double>(writes) : 0.0);
  }

  const std::vector<Span>& spans() const { return spans_; }
  audit::AuditCapture& audit() { return *audit_; }

 private:
  std::atomic<bool> active_{false};
  std::mutex mu_;
  WireStats& wire_;
  std::unique_ptr<audit::AuditCapture> audit_;
  ProtoReplay replay_;
  bool remote_servers_;
  std::function<TimeNs()> virt_now_;
  std::map<std::string, PayloadStats> payloads_;
  TimedCount wire_on_send_, audit_on_send_;
  std::vector<Span> spans_;
  std::int64_t step_span_{-1};
  const char* delivered_{nullptr};
  std::uint64_t deliver_wall_{0};
  std::uint64_t step_codec_ns_{0}, step_observer_ns_{0}, step_sends_{0};
  std::uint64_t deliver_steps_{0}, pop_ns_{0}, actions_in_deliver_steps_{0};
  std::uint64_t sink_{0};
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write spans file " + path);
  f << "id\tname\ttxn\tparent\twall_start_ns\twall_end_ns\tvirt_start_ns\tvirt_end_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << i << '\t' << s.name << '\t'
      << (s.txn == kInvalidTxn ? std::string("-") : std::to_string(s.txn)) << '\t' << s.parent
      << '\t' << s.wall_start << '\t' << s.wall_end << '\t' << s.virt_start << '\t' << s.virt_end
      << '\n';
  }
}

/// Replays the run's INV/RESP sequence into a fresh HistoryRecorder and
/// times each finish call and the final snapshot.
void replay_history(const History& h, Output& out) {
  struct Ev {
    std::uint64_t order;
    bool invoke;
    std::size_t idx;
  };
  std::vector<Ev> evs;
  evs.reserve(h.txns.size() * 2);
  for (std::size_t i = 0; i < h.txns.size(); ++i) {
    evs.push_back({h.txns[i].invoke_order, true, i});
    if (h.txns[i].complete) evs.push_back({h.txns[i].respond_order, false, i});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) { return a.order < b.order; });
  HistoryRecorder fresh(h.num_objects);
  std::vector<TxnId> ids(h.txns.size(), kInvalidTxn);
  std::vector<std::uint64_t> finish_ns;
  finish_ns.reserve(h.txns.size());
  for (const Ev& e : evs) {
    const TxnRecord& t = h.txns[e.idx];
    if (e.invoke) {
      if (t.is_read) {
        std::vector<ObjectId> objs;
        for (const auto& [o, v] : t.reads) objs.push_back(o);
        ids[e.idx] = fresh.begin_read(t.client, objs);
      } else {
        ids[e.idx] = fresh.begin_write(t.client, t.writes);
      }
      continue;
    }
    const auto t0 = wall_ns();
    if (t.is_read) {
      fresh.finish_read(ids[e.idx], t.reads, t.tag, t.rounds, t.max_versions);
    } else {
      fresh.finish_write(ids[e.idx], t.tag, t.rounds);
    }
    finish_ns.push_back(wall_ns() - t0);
  }
  const std::size_t tenth = std::max<std::size_t>(1, finish_ns.size() / 10);
  auto mean = [&](std::size_t lo, std::size_t hi) {
    double s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += static_cast<double>(finish_ns[i]);
    return hi > lo ? s / static_cast<double>(hi - lo) : 0.0;
  };
  out.num("history.finish_ns.first_tenth", mean(0, tenth));
  out.num("history.finish_ns.last_tenth", mean(finish_ns.size() - tenth, finish_ns.size()));
  const auto s0 = wall_ns();
  const History snap = fresh.snapshot();
  out.num("history.snapshot_s", static_cast<double>(wall_ns() - s0) / 1e9);
  if (snap.txns.size() != h.txns.size()) throw std::runtime_error("history replay lost txns");
}

/// Times TrafficShard draws with the workload's model and seed.
void time_arrivals(const Workload& w, std::uint64_t seed, Output& out) {
  TrafficShard shard(w.system.num_objects, w.model, seed, 0, w.model.logical_clients);
  const std::size_t n = w.measured_ops;
  std::uint64_t sink = 0;
  const auto t0 = wall_ns();
  for (std::size_t i = 0; i < n; ++i) sink += shard.next().objects.size();
  const auto dt = wall_ns() - t0;
  if (sink == 0) throw std::runtime_error("traffic shard produced no objects");
  out.num("workload.arrival_ns", static_cast<double>(dt) / static_cast<double>(n));
}

// --- shared measured-phase bookkeeping --------------------------------------

/// Polled from outside the system while the measured phase runs: generator
/// lag and the CPU checkpoints at the first and last tenth of completions.
class PhaseProbe {
 public:
  PhaseProbe(const WorkloadDriver& d, const Workload& w, std::function<std::uint64_t()> cpu)
      : d_(d), w_(w), cpu_(std::move(cpu)) {}

  void start(TimeNs now) {
    start_ = now;
    cpu0_ = cpu_();
  }

  void poll(TimeNs now) {
    const std::size_t n = w_.measured_ops;
    const std::size_t due =
        std::min<std::size_t>(n, static_cast<std::size_t>((now - start_) / w_.interval_ns));
    const std::size_t issued = d_.arrivals_issued();
    if (due > issued) lag_max_ = std::max<TimeNs>(lag_max_, (due - issued) * w_.interval_ns);
    const std::size_t done = d_.completed_reads() + d_.completed_writes();
    if (cpu_first_ == 0 && done >= n / 10) cpu_first_ = cpu_();
    if (cpu_last_ == 0 && done >= n - n / 10) cpu_last_ = cpu_();
  }

  void finish(Output& out) {
    const std::uint64_t cpu_end = cpu_();
    const double first = static_cast<double>(cpu_first_ - cpu0_);
    const double last = static_cast<double>(cpu_end - cpu_last_);
    out.num("core.cpu_drift_x", first > 0 ? last / first : 0.0);
    out.num("core.gen_lag_max_ms", static_cast<double>(lag_max_) / 1e6);
    out.num("core.achieved_rate_frac",
            d_.achieved_arrival_rate() * static_cast<double>(w_.interval_ns) / 1e9);
  }

 private:
  const WorkloadDriver& d_;
  const Workload& w_;
  std::function<std::uint64_t()> cpu_;
  TimeNs start_{0};
  TimeNs lag_max_{0};
  std::uint64_t cpu0_{0}, cpu_first_{0}, cpu_last_{0};
};

/// History-derived end-to-end metrics over the measured transactions, plus
/// the strict-serializability check over the whole history.
void history_metrics(const History& h, std::size_t warmup, Output& out, Fnv& virt, Fnv& inputs,
                     bool flip_read) {
  std::vector<TimeNs> reads, writes;
  double rounds = 0, versions = 0;
  for (std::size_t i = warmup; i < h.txns.size(); ++i) {
    const TxnRecord& t = h.txns[i];
    if (!t.complete) continue;
    const TimeNs lat = t.respond_ns - t.invoke_ns;
    (t.is_read ? reads : writes).push_back(lat);
    if (t.is_read) {
      rounds += t.rounds;
      versions += t.max_versions;
    }
    virt.add(t.invoke_ns);
    virt.add(t.respond_ns);
    virt.add(static_cast<std::uint64_t>(t.rounds) << 32 |
             static_cast<std::uint32_t>(t.max_versions));
    virt.add(t.tag);
    inputs.add(t.is_read);
    for (const auto& [o, v] : t.is_read ? t.reads : t.writes) inputs.add(o);
  }
  // Raw measured latencies, so run.py can pool percentiles over trials.
  out.samples("read_lat_ns", reads);
  out.samples("write_lat_ns", writes);
  out.num("read_p50_us", percentile_us(reads, 0.50));
  out.num("read_p95_us", percentile_us(reads, 0.95));
  out.num("read_p99_us", percentile_us(reads, 0.99));
  out.num("write_p50_us", percentile_us(writes, 0.50));
  out.num("write_p95_us", percentile_us(writes, 0.95));
  out.num("write_p99_us", percentile_us(writes, 0.99));
  out.num("read_rounds_mean", reads.empty() ? 0 : rounds / static_cast<double>(reads.size()));
  out.num("read_versions_mean", reads.empty() ? 0 : versions / static_cast<double>(reads.size()));
  out.num("reads", static_cast<double>(reads.size()));
  out.num("writes", static_cast<double>(writes.size()));

  const auto t0 = wall_ns();
  const TagOrderResult verdict = check_tag_order(h);
  out.num("verify_s", static_cast<double>(wall_ns() - t0) / 1e9);
  out.num("verify_ok", verdict.ok ? 1 : 0);
  if (!verdict.ok) std::fprintf(stderr, "verify: %s\n", verdict.explanation.c_str());

  if (flip_read) {
    // Vacuity self-test: the same history with ONE read value flipped to a
    // value no WRITE ever wrote must fail the check.
    History bad = h;
    bool flipped = false;
    for (std::size_t i = bad.txns.size(); i-- > warmup && !flipped;) {
      TxnRecord& t = bad.txns[i];
      if (t.is_read && t.complete && !t.reads.empty()) {
        t.reads[0].second = -1'000'000'007;
        flipped = true;
      }
    }
    out.num("selftest.flipped_verify_ok", flipped && check_tag_order(bad).ok ? 1 : 0);
    out.num("selftest.flipped", flipped ? 1 : 0);
  }
}

void common_tail(Output& out, const WorkloadDriver& d, std::size_t attempted) {
  const double done = static_cast<double>(d.completed_reads() + d.completed_writes());
  out.num("attempted", static_cast<double>(attempted));
  out.num("completed", done);
  out.num("completed_frac", done / static_cast<double>(attempted));
  const LatencySummary soj = d.sojourn_latency();
  out.num("sojourn_p50_us", static_cast<double>(soj.p50_ns) / 1000.0);
  out.num("sojourn_p95_us", static_cast<double>(soj.p95_ns) / 1000.0);
  out.num("sojourn_p99_us", static_cast<double>(soj.p99_ns) / 1000.0);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.num("rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  bool trace{false};
  std::string spans;
  std::string tmp{"."};
  std::size_t ops{0};  ///< 0 = the workload's measured op count.
  double rate{0};      ///< arrivals/s; 0 = the workload's rate.
  std::vector<std::string> options;  ///< key=value BuildOptions overrides.
  bool selftest_vacuity{false};
};

// --- simulator trials -------------------------------------------------------

Output run_sim(Workload w, const Args& a) {
  Output out;
  const auto setup0 = wall_ns();
  SimRuntime sim(make_uniform_delay(50'000, 2'000'000, a.seed));  // 50us..2ms hops
  WireStats wire;
  std::unique_ptr<Tracer> tracer;
  if (a.trace) {
    tracer = std::make_unique<Tracer>(wire, w.system.num_objects, a.tmp + "/audit",
                                      /*remote_servers=*/false, [&sim] { return sim.now_ns(); });
  }
  sim.set_observer(tracer ? static_cast<MessageObserver*>(tracer.get()) : &wire);
  HistoryRecorder rec(w.system.num_objects);
  auto sys = build_protocol(w.protocol, sim, rec, w.system, w.options);

  {
    // Steady-state warm-up on the same system (adaptive mode tables and
    // caches converge, version chains reach their GC'd length).
    WorkloadSpec wspec;
    wspec.seed = a.seed ^ 0x3a3dull;
    WorkloadDriver warm(sim, *sys, wspec, w.driver_options(w.warmup_ops));
    warm.start();
    sim.run_until_idle();
    if (!warm.done()) throw std::runtime_error("warm-up did not complete");
  }

  DriverOptions opts = w.driver_options(w.measured_ops);
  opts.value_base = 1 + w.warmup_ops * 8;  // past any value the warm-up handed out
  WorkloadSpec spec;
  spec.seed = a.seed;
  WorkloadDriver driver(sim, *sys, spec, opts);
  out.num("setup_s", static_cast<double>(wall_ns() - setup0) / 1e9);

  const std::uint64_t msgs0 = wire.messages(), bytes0 = wire.bytes();
  const std::size_t actions0 = sim.trace().size();
  const auto per_type0 = wire.per_type();
  PhaseProbe probe(driver, w, process_cpu_ns);
  const std::uint64_t cpu0 = process_cpu_ns();
  probe.start(sim.now_ns());
  driver.start();
  if (tracer) {
    tracer->set_active(true);
    while (true) {
      tracer->begin_step(wall_ns(), sim.now_ns());
      const bool more = sim.step();
      tracer->end_step(wall_ns(), sim.now_ns());
      if (!more) break;
      probe.poll(sim.now_ns());
    }
  } else {
    while (sim.step()) probe.poll(sim.now_ns());
  }
  const std::uint64_t cpu1 = process_cpu_ns();
  probe.finish(out);
  if (!driver.done()) throw std::runtime_error("measured phase did not complete");

  const double ops = static_cast<double>(driver.completed_reads() + driver.completed_writes());
  out.num("cpu_us_per_op", static_cast<double>(cpu1 - cpu0) / 1000.0 / ops);
  out.num("msgs_per_op", static_cast<double>(wire.messages() - msgs0) / ops);
  out.num("wire_bytes_per_op", static_cast<double>(wire.bytes() - bytes0) / ops);
  out.num("sim.trace_actions_per_op", static_cast<double>(sim.trace().size() - actions0) / ops);
  common_tail(out, driver, w.measured_ops);

  const History h = rec.snapshot();
  if (h.txns.size() != w.warmup_ops + w.measured_ops) {
    throw std::runtime_error("history holds " + std::to_string(h.txns.size()) + " txns");
  }
  Fnv virt, inputs;
  history_metrics(h, w.warmup_ops, out, virt, inputs, a.selftest_vacuity);
  virt.add(wire.messages() - msgs0);
  virt.add(wire.bytes() - bytes0);
  virt.add(static_cast<std::uint64_t>(out.get("sojourn_p50_us") * 1000));
  virt.add(static_cast<std::uint64_t>(out.get("sojourn_p99_us") * 1000));
  out.str("virt_fingerprint", virt.hex());
  out.str("inputs_fingerprint", inputs.hex());

  if (tracer) {
    // Cost of one trace append, from replaying this run's actions.
    Trace copy;
    const auto& acts = sim.trace().actions();
    const auto t0 = wall_ns();
    for (const Action& act : acts) copy.append(act);
    const double append_ns =
        acts.empty() ? 0.0 : static_cast<double>(wall_ns() - t0) / static_cast<double>(acts.size());
    std::uint64_t repl = 0;
    for (const auto& [name, n] : wire.per_type()) {
      if (name.rfind("repl-", 0) == 0) {
        auto it = per_type0.find(name);
        repl += n - (it == per_type0.end() ? 0 : it->second);
      }
    }
    tracer->report(out, append_ns, static_cast<std::uint64_t>(out.get("writes")), repl);
    tracer->audit().close();
    std::filesystem::remove_all(a.tmp + "/audit");
    replay_history(h, out);
    time_arrivals(w, a.seed, out);
    if (!a.spans.empty()) write_spans(a.spans, tracer->spans());
  }
  return out;
}

// --- TCP trial --------------------------------------------------------------

/// Per-process CPU (ns, all threads) and context switches from /proc.
struct ProcSample {
  std::uint64_t cpu_ns{0}, vcsw{0}, nvcsw{0};
};

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  const std::filesystem::path task = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& t : std::filesystem::directory_iterator(task, ec)) {
    std::ifstream sched(t.path() / "schedstat");
    std::uint64_t run = 0;
    if (sched >> run) s.cpu_ns += run;
    std::ifstream status(t.path() / "status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        s.vcsw += std::stoull(line.substr(line.find(':') + 1));
      } else if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        s.nvcsw += std::stoull(line.substr(line.find(':') + 1));
      }
    }
  }
  return s;
}

/// The snowkit_server daemons of one trial; always reaped on scope exit.
struct Daemons {
  std::vector<pid_t> pids;

  Daemons() = default;
  ~Daemons() { reap(2000); }
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;

  bool any_exited() {
    for (pid_t& pid : pids) {
      int status = 0;
      if (pid > 0 && ::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return true;
      }
    }
    return false;
  }

  /// Waits for every daemon; SIGKILLs stragglers past the grace window.
  /// True iff all exited 0 on their own.
  bool reap(int grace_ms) {
    bool clean = true;
    const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
    for (pid_t& pid : pids) {
      while (pid > 0) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) {
          clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
          pid = -1;
        } else if (r < 0) {
          clean = false;
          pid = -1;
        } else if (Clock::now() >= deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          clean = false;
          pid = -1;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    }
    return clean;
  }
};

/// Reads one numeric key of a snowkit_server --stats-json file.
double stats_value(const std::string& path, const std::string& key) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) throw std::runtime_error(path + " has no " + key);
  return std::stod(text.substr(pos + needle.size()));
}

template <typename Pred>
void wait_for(Pred done, Daemons& d, double seconds, const char* what) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  while (!done()) {
    if (d.any_exited()) throw std::runtime_error(std::string(what) + ": a daemon exited");
    if (Clock::now() > deadline) throw std::runtime_error(std::string(what) + ": timed out");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Output run_tcp(Workload w, const Args& a, const std::string& server_bin) {
  Output out;
  const auto setup0 = wall_ns();
  FleetConfig fleet;
  fleet.protocol = w.protocol;
  fleet.system = w.system;
  fleet.options = w.options;
  for (const std::uint16_t port : net::pick_free_ports(w.system.num_servers + 1)) {
    fleet.processes.push_back({"127.0.0.1", port});
  }
  fleet.validate();
  const std::string tag = a.tmp + "/tcp-" + std::to_string(::getpid());
  const std::string cfg_path = tag + ".cfg";
  {
    std::ofstream f(cfg_path, std::ios::trunc);
    if (!f) throw std::runtime_error("cannot write " + cfg_path);
    f << fleet_text(fleet);
  }
  std::vector<std::string> stats_paths;
  Daemons daemons;
  for (std::size_t i = 0; i < fleet.server_processes(); ++i) {
    stats_paths.push_back(tag + "-stats" + std::to_string(i) + ".json");
    std::filesystem::remove(stats_paths.back());
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      const std::string index = std::to_string(i);
      ::execl(server_bin.c_str(), server_bin.c_str(), "--config", cfg_path.c_str(), "--index",
              index.c_str(), "--stats-json", stats_paths.back().c_str(), "--quiet",
              static_cast<char*>(nullptr));
      std::perror("execl snowkit_server");
      ::_exit(127);
    }
    daemons.pids.push_back(pid);
  }

  NetRuntime rt(fleet.net_options(fleet.client_index()));
  WireStats wire;
  std::unique_ptr<Tracer> tracer;
  if (a.trace) {
    tracer = std::make_unique<Tracer>(wire, w.system.num_objects, a.tmp + "/audit",
                                      /*remote_servers=*/true, [&rt] { return rt.now_ns(); });
  }
  rt.set_observer(tracer ? static_cast<MessageObserver*>(tracer.get()) : &wire);
  HistoryRecorder rec(w.system.num_objects);
  auto sys = build_protocol(w.protocol, rt, rec, w.system, w.options);
  rt.start();
  if (!rt.wait_connected_for(15'000'000'000ull)) {
    rt.stop();
    throw std::runtime_error("fleet did not come up within 15s");
  }
  // Both drivers outlive the executors (rt.stop() runs first on every path):
  // WorkloadDriver::op_finished still locks the driver's mutex after done()
  // has turned true, so destroying a driver the moment it reports done races
  // with the executor that finished its last operation.
  std::unique_ptr<WorkloadDriver> warmup, measured;
  try {
    // Closed-loop warm-up: as fast as the fleet goes, so set-up time is work
    // the code does, not pacing.
    WorkloadSpec wspec;
    wspec.seed = a.seed ^ 0x3a3dull;
    DriverOptions warm;
    warm.mode = ArrivalMode::kClosedLoop;
    warm.mixed = true;
    warm.read_fraction = w.model.read_fraction;
    warm.ops_per_client = w.warmup_ops / sys->num_clients();
    warmup = std::make_unique<WorkloadDriver>(rt, *sys, wspec, warm);
    w.warmup_ops = warmup->total_ops();
    warmup->start();
    wait_for([&] { return warmup->done(); }, daemons, 60, "warm-up");

    DriverOptions opts = w.driver_options(w.measured_ops);
    opts.value_base = 1 + w.warmup_ops * 8;
    WorkloadSpec spec;
    spec.seed = a.seed;
    measured = std::make_unique<WorkloadDriver>(rt, *sys, spec, opts);
    WorkloadDriver& driver = *measured;
    out.num("setup_s", static_cast<double>(wall_ns() - setup0) / 1e9);

    auto fleet_cpu = [&] {
      std::uint64_t c = process_cpu_ns();
      for (pid_t pid : daemons.pids) c += sample_proc(pid).cpu_ns;
      return c;
    };
    std::vector<ProcSample> d0;
    for (pid_t pid : daemons.pids) d0.push_back(sample_proc(pid));
    rusage ru0{};
    getrusage(RUSAGE_SELF, &ru0);
    const std::uint64_t cpu0 = process_cpu_ns();
    PhaseProbe probe(driver, w, fleet_cpu);
    probe.start(rt.now_ns());
    if (tracer) tracer->set_active(true);
    driver.start();
    const double budget = static_cast<double>(w.interval_ns * w.measured_ops) / 1e9 + 60;
    const auto deadline = Clock::now() + std::chrono::duration<double>(budget);
    while (!driver.done()) {
      if (daemons.any_exited()) throw std::runtime_error("measured phase: a daemon exited");
      if (Clock::now() > deadline) throw std::runtime_error("measured phase: timed out");
      probe.poll(rt.now_ns());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const std::uint64_t cpu1 = process_cpu_ns();
    rusage ru1{};
    getrusage(RUSAGE_SELF, &ru1);
    ProcSample dsum;
    for (std::size_t i = 0; i < daemons.pids.size(); ++i) {
      const ProcSample s = sample_proc(daemons.pids[i]);
      dsum.cpu_ns += s.cpu_ns - d0[i].cpu_ns;
      dsum.vcsw += s.vcsw - d0[i].vcsw;
      dsum.nvcsw += s.nvcsw - d0[i].nvcsw;
    }
    probe.finish(out);
    if (tracer) tracer->set_active(false);

    rt.broadcast_shutdown();
    rt.stop();
    const TransportStats cs = rt.transport_stats();
    out.num("servers_clean", daemons.reap(5000) ? 1 : 0);

    const double ops = static_cast<double>(driver.completed_reads() + driver.completed_writes());
    const double trial_ops = ops + static_cast<double>(w.warmup_ops);
    const double client_cpu = static_cast<double>(cpu1 - cpu0);
    out.num("cpu_us_per_op", (client_cpu + static_cast<double>(dsum.cpu_ns)) / 1000.0 / ops);
    out.num("net.client_cpu_us_per_op", client_cpu / 1000.0 / ops);
    out.num("net.server_cpu_us_per_op", static_cast<double>(dsum.cpu_ns) / 1000.0 / ops);
    out.num("net.vcsw_per_op",
            static_cast<double>(dsum.vcsw + (ru1.ru_nvcsw - ru0.ru_nvcsw)) / ops);
    out.num("net.nvcsw_per_op",
            static_cast<double>(dsum.nvcsw + (ru1.ru_nivcsw - ru0.ru_nivcsw)) / ops);

    // Daemon counters cover the whole trial (warm-up + measured); the
    // client's are taken over the same span so the sums are consistent.
    double frames = static_cast<double>(cs.frames_sent);
    double bytes = static_cast<double>(cs.bytes_sent);
    double syscalls = static_cast<double>(cs.send_syscalls + cs.recv_syscalls);
    double sends = static_cast<double>(cs.send_syscalls);
    double written = static_cast<double>(cs.frames_written);
    double wakeups = static_cast<double>(cs.total_epoll_wakeups());
    double bursts = static_cast<double>(cs.mailbox_bursts);
    double backpressure = static_cast<double>(cs.backpressure_waits + cs.inbound_pauses);
    for (const std::string& p : stats_paths) {
      frames += stats_value(p, "tcp_frames_sent");
      bytes += stats_value(p, "tcp_bytes_sent");
      const double sc = stats_value(p, "tcp_send_syscalls");
      syscalls += sc + stats_value(p, "tcp_recv_syscalls");
      sends += sc;
      written += sc * stats_value(p, "frames_per_syscall");
      wakeups += stats_value(p, "tcp_epoll_wakeups");
      bursts += stats_value(p, "tcp_mailbox_bursts");
      backpressure += stats_value(p, "tcp_backpressure_waits") +
                      stats_value(p, "tcp_inbound_pauses");
      std::filesystem::remove(p);
    }
    std::filesystem::remove(cfg_path);
    out.num("msgs_per_op", frames / trial_ops);
    out.num("wire_bytes_per_op", bytes / trial_ops);
    out.num("net.syscalls_per_op", syscalls / trial_ops);
    out.num("net.frames_per_syscall", sends > 0 ? written / sends : 0.0);
    out.num("net.epoll_wakeups_per_op", wakeups / trial_ops);
    out.num("net.mailbox_bursts_per_op", bursts / trial_ops);
    out.num("net.backpressure_events", backpressure);
    common_tail(out, driver, w.measured_ops);

    const History h = rec.snapshot();
    if (h.txns.size() != w.warmup_ops + w.measured_ops) {
      throw std::runtime_error("history holds " + std::to_string(h.txns.size()) + " txns");
    }
    Fnv virt, inputs;
    history_metrics(h, w.warmup_ops, out, virt, inputs, a.selftest_vacuity);
    out.str("inputs_fingerprint", inputs.hex());
    if (tracer) {
      tracer->report(out, 0.0, static_cast<std::uint64_t>(out.get("writes")), 0);
      tracer->audit().close();
      std::filesystem::remove_all(a.tmp + "/audit");
      replay_history(h, out);
      time_arrivals(w, a.seed, out);
      if (!a.spans.empty()) write_spans(a.spans, tracer->spans());
    }
  } catch (...) {
    rt.stop();
    throw;
  }
  return out;
}

std::string server_binary() {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot resolve /proc/self/exe");
  const auto bin = self.parent_path() / "snowkit_server";
  if (!std::filesystem::exists(bin)) throw std::runtime_error(bin.string() + " not found");
  return bin.string();
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = std::stoull(next());
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--spans") {
      a.spans = next();
    } else if (arg == "--tmp") {
      a.tmp = next();
    } else if (arg == "--ops") {
      a.ops = std::stoull(next());
    } else if (arg == "--rate") {
      a.rate = std::stod(next());
      if (!(a.rate > 0)) throw std::invalid_argument("--rate must be > 0");
    } else if (arg == "--option") {
      a.options.push_back(next());
    } else if (arg == "--selftest-vacuity") {
      a.selftest_vacuity = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  Workload w = make_workload(a.workload);
  if (a.ops > 0) {
    w.measured_ops = a.ops;
    w.warmup_ops = std::max<std::size_t>(1, a.ops / 5);
  }
  if (a.rate > 0) w.interval_ns = static_cast<TimeNs>(1e9 / a.rate);
  for (const std::string& kv : a.options) {
    const BuildOptions parsed = BuildOptions::parse(kv);
    for (const auto& [k, v] : parsed.entries()) w.options.set(k, v);
  }
  std::filesystem::create_directories(a.tmp);
  const Output out = w.tcp ? run_tcp(w, a, server_binary()) : run_sim(w, a);
  std::printf("%s\n", out.json().c_str());
  return 0;
}

}  // namespace
}  // namespace snowkit::perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return snowkit::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
