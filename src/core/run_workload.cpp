#include "core/run_workload.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"

namespace snowkit {

namespace {

void validate_span(const char* what, std::size_t span, std::size_t num_objects) {
  if (span == 0) {
    throw std::invalid_argument(std::string("WorkloadSpec: ") + what + " must be >= 1");
  }
  if (span > num_objects) {
    throw std::invalid_argument(std::string("WorkloadSpec: ") + what + " (" +
                                std::to_string(span) + ") exceeds num_objects (" +
                                std::to_string(num_objects) + ")");
  }
}

/// While paused, the timer chains idle-poll at this cadence (capped so a
/// slow nominal rate cannot make resume() sluggish).
TimeNs pause_poll_ns(TimeNs interval) { return std::min<TimeNs>(interval, 1'000'000); }

}  // namespace

WorkloadDriver::WorkloadDriver(Runtime& rt, ProtocolSystem& sys, WorkloadSpec spec,
                               DriverOptions opts)
    : rt_(rt), sys_(sys), spec_(spec), opts_(opts), coin_(spec.seed ^ 0xC0FFEEull) {
  next_value_.store(opts_.value_base, std::memory_order_relaxed);
  const std::size_t k = sys_.num_objects();
  const bool engine = opts_.traffic.has_value();
  if (!engine) {
    const bool issues_reads =
        opts_.mode == ArrivalMode::kOpenLoop || opts_.mixed
            ? true
            : (sys_.num_readers() > 0 && spec_.ops_per_reader > 0);
    const bool issues_writes =
        opts_.mode == ArrivalMode::kOpenLoop || opts_.mixed
            ? true
            : (sys_.num_writers() > 0 && spec_.ops_per_writer > 0);
    if (issues_reads) validate_span("read_span", spec_.read_span, k);
    if (issues_writes) validate_span("write_span", spec_.write_span, k);
  }

  SplitMix64 seeds(spec_.seed);
  if (opts_.mode == ArrivalMode::kClosedLoop && !opts_.mixed && !engine) {
    // Split closed loop: the seed driver's exact behaviour (and seeds).
    for (std::size_t i = 0; i < sys_.num_readers(); ++i) {
      reader_streams_.emplace_back(k, spec_, seeds.next());
    }
    for (std::size_t i = 0; i < sys_.num_writers(); ++i) {
      writer_streams_.emplace_back(k, spec_, seeds.next());
    }
    total_ops_ =
        sys_.num_readers() * spec_.ops_per_reader + sys_.num_writers() * spec_.ops_per_writer;
  } else if (engine) {
    // Traffic-engine mode: arrivals come from a TrafficModel via per-shard
    // generators; no per-protocol-client OpStreams are built (at 10^6
    // logical clients there is nothing per-client to build).
    if (opts_.mode != ArrivalMode::kOpenLoop) {
      throw std::invalid_argument(
          "DriverOptions: the traffic engine requires ArrivalMode::kOpenLoop");
    }
    if (opts_.arrival_shards == 0) {
      throw std::invalid_argument("DriverOptions: arrival_shards must be >= 1");
    }
    const TrafficModel& model = *opts_.traffic;
    model.validate(k);
    if (model.read_fraction > 0 && sys_.num_readers() == 0) {
      throw std::invalid_argument("DriverOptions: read_fraction > 0 but the system has no "
                                  "read clients");
    }
    if (model.read_fraction < 1 && sys_.num_writers() == 0) {
      throw std::invalid_argument("DriverOptions: read_fraction < 1 but the system has no "
                                  "write clients");
    }
    total_ops_ = opts_.total_ops;
    if (opts_.arrival_interval_ns == 0) {
      throw std::invalid_argument("DriverOptions: open loop needs arrival_interval_ns > 0");
    }
  } else {
    for (std::size_t i = 0; i < sys_.num_clients(); ++i) {
      client_streams_.emplace_back(k, spec_, seeds.next());
      client_coins_.emplace_back(seeds.next());
    }
    if (opts_.mode == ArrivalMode::kOpenLoop) {
      total_ops_ = opts_.total_ops;
      if (opts_.arrival_interval_ns == 0) {
        throw std::invalid_argument("DriverOptions: open loop needs arrival_interval_ns > 0");
      }
    } else {
      total_ops_ = sys_.num_clients() * opts_.ops_per_client;
    }
    if (opts_.read_fraction > 0 && sys_.num_readers() == 0) {
      throw std::invalid_argument("DriverOptions: read_fraction > 0 but the system has no "
                                  "read clients");
    }
    if (opts_.read_fraction < 1 && sys_.num_writers() == 0) {
      throw std::invalid_argument("DriverOptions: read_fraction < 1 but the system has no "
                                  "write clients");
    }
  }
  arrivals_left_ = opts_.mode == ArrivalMode::kOpenLoop && !engine ? total_ops_ : 0;
  remaining_ops_.store(total_ops_, std::memory_order_relaxed);
  finished_ = total_ops_ == 0;
  // Open-loop arrivals chain on one owned node's executor (see
  // schedule_arrival).  Node 0 on single-process runtimes; the first
  // locally-owned node (a client) when driving a remote NetRuntime fleet.
  while (timer_node_ < rt_.node_count() && !rt_.owns_node(timer_node_)) ++timer_node_;
  SNOW_CHECK_MSG(timer_node_ < rt_.node_count(),
                 "WorkloadDriver: the runtime owns no local node to anchor timers on");

  if (engine) {
    // Sharded pacing: each shard is an independent absolute-deadline timer
    // chain anchored on its own locally-owned node (distinct executors run
    // distinct shards concurrently on the threaded runtimes; with fewer
    // owned nodes than shards the anchors wrap and chains serialize, which
    // is slower but still correct).  Protocol client slots are partitioned
    // across shards so concurrent shards never interleave on one TxnClient
    // queue; the logical-client population is partitioned the same way.
    std::vector<NodeId> owned;
    for (NodeId id = 0; id < rt_.node_count(); ++id) {
      if (rt_.owns_node(id)) owned.push_back(id);
    }
    const std::size_t shard_count = opts_.arrival_shards;
    const std::size_t clients = sys_.num_clients();
    const std::uint64_t logical = opts_.traffic->logical_clients;
    shards_.resize(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      EngineShard& sh = shards_[s];
      sh.anchor = owned[s % owned.size()];
      sh.arrivals_left = total_ops_ / shard_count + (s < total_ops_ % shard_count ? 1 : 0);
      if (clients >= shard_count) {
        sh.client_lo = s * clients / shard_count;
        sh.client_hi = (s + 1) * clients / shard_count;
      } else {
        sh.client_lo = 0;
        sh.client_hi = clients;
      }
      std::uint64_t lo = 0, hi = logical;
      if (logical >= shard_count) {
        lo = s * logical / shard_count;
        hi = (s + 1) * logical / shard_count;
      }
      sh.traffic = std::make_unique<TrafficShard>(k, *opts_.traffic, seeds.next(), lo, hi);
    }
  }
}

void WorkloadDriver::start() {
  if (total_ops_ == 0) return;
  if (opts_.mode == ArrivalMode::kOpenLoop) {
    start_ns_ = rt_.now_ns();
    if (!shards_.empty()) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        EngineShard& sh = shards_[s];
        if (sh.arrivals_left == 0) continue;
        // Phase-offset the shards: shard s's first deadline is (s+1) base
        // intervals out and it steps by S bases, so the AGGREGATE process
        // keeps the nominal per-arrival spacing.
        const TimeNs base = sh.traffic->next_interval(0, opts_.arrival_interval_ns);
        sh.next_deadline = start_ns_ + base * static_cast<TimeNs>(s + 1);
        engine_schedule(s);
      }
      return;
    }
    next_deadline_ = start_ns_ + opts_.arrival_interval_ns;
    schedule_arrival();
    return;
  }
  if (opts_.mixed) {
    for (std::size_t i = 0; i < sys_.num_clients(); ++i) {
      issue_mixed_chain(i, opts_.ops_per_client);
    }
    return;
  }
  for (std::size_t i = 0; i < sys_.num_readers(); ++i) {
    if (spec_.ops_per_reader > 0) issue_read_chain(i, spec_.ops_per_reader);
  }
  for (std::size_t i = 0; i < sys_.num_writers(); ++i) {
    if (spec_.ops_per_writer > 0) issue_write_chain(i, spec_.ops_per_writer);
  }
}

TxnRequest WorkloadDriver::next_request(std::size_t client, bool is_read) {
  OpStream& stream =
      !client_streams_.empty()
          ? client_streams_[client]
          : (is_read ? reader_streams_[client] : writer_streams_[client]);
  if (is_read) {
    return read_txn(stream.next_objects(spec_.read_span));
  }
  auto objs = stream.next_objects(spec_.write_span);
  std::vector<std::pair<ObjectId, Value>> writes;
  writes.reserve(objs.size());
  for (ObjectId obj : objs) {
    // Globally unique values let the checkers identify producers exactly.
    writes.emplace_back(obj,
                        static_cast<Value>(next_value_.fetch_add(1, std::memory_order_relaxed)));
  }
  return write_txn(std::move(writes));
}

void WorkloadDriver::submit_one(std::size_t client, bool is_read, TxnCallback cb) {
  // Closed loop has no backlog to measure; skip the shared-histogram lock
  // so concurrent completion chains on ThreadRuntime don't serialize here.
  sys_.client(client).submit(next_request(client, is_read), std::move(cb));
}

void WorkloadDriver::record_sojourn(TimeNs deadline) {
  const TimeNs now = rt_.now_ns();
  std::lock_guard<std::mutex> lock(sojourn_mu_);
  sojourn_.record(now >= deadline ? now - deadline : 0);
}

void WorkloadDriver::note_arrival_issued() {
  arrivals_issued_.fetch_add(1, std::memory_order_acq_rel);
  const TimeNs now = rt_.now_ns();
  TimeNs prev = last_arrival_ns_.load(std::memory_order_relaxed);
  while (prev < now &&
         !last_arrival_ns_.compare_exchange_weak(prev, now, std::memory_order_acq_rel)) {
  }
}

void WorkloadDriver::submit_arrival(std::size_t client, bool is_read, TimeNs deadline) {
  // Sojourn measures from the INTENDED deadline, not the (possibly late)
  // issuance instant: a paced client that fell behind still "arrived" on
  // schedule, so the delay it suffered is queueing, not a shorter wait —
  // the coordinated-omission-correct bookkeeping.
  note_arrival_issued();
  sys_.client(client).submit(next_request(client, is_read),
                             [this, deadline, is_read](const TxnResult&) {
                               record_sojourn(deadline);
                               op_finished(is_read);
                             });
}

void WorkloadDriver::submit_engine_arrival(EngineShard& sh, TimeNs deadline) {
  TrafficArrival a = sh.traffic->next();
  const std::size_t client = sh.client_lo + sh.next_client;
  sh.next_client = (sh.next_client + 1) % (sh.client_hi - sh.client_lo);
  TxnRequest req;
  if (a.is_read) {
    req = read_txn(std::move(a.objects));
  } else {
    std::vector<std::pair<ObjectId, Value>> writes;
    writes.reserve(a.objects.size());
    for (ObjectId obj : a.objects) {
      writes.emplace_back(
          obj, static_cast<Value>(next_value_.fetch_add(1, std::memory_order_relaxed)));
    }
    req = write_txn(std::move(writes));
  }
  note_arrival_issued();
  const bool is_read = a.is_read;
  sys_.client(client).submit(std::move(req), [this, is_read, deadline](const TxnResult&) {
    record_sojourn(deadline);
    op_finished(is_read);
  });
}

LatencySummary WorkloadDriver::sojourn_latency() const {
  std::lock_guard<std::mutex> lock(sojourn_mu_);
  return summarize_histogram(sojourn_);
}

std::size_t WorkloadDriver::in_flight() const {
  const std::size_t issued = arrivals_issued_.load(std::memory_order_acquire);
  const std::size_t completed = total_ops_ - remaining_ops_.load(std::memory_order_acquire);
  return issued > completed ? issued - completed : 0;
}

double WorkloadDriver::achieved_arrival_rate() const {
  const std::size_t issued = arrivals_issued_.load(std::memory_order_acquire);
  const TimeNs last = last_arrival_ns_.load(std::memory_order_acquire);
  if (issued == 0 || last <= start_ns_) return 0;
  return static_cast<double>(issued) / (static_cast<double>(last - start_ns_) * 1e-9);
}

void WorkloadDriver::issue_read_chain(std::size_t reader, std::size_t remaining) {
  submit_one(reader, /*is_read=*/true, [this, reader, remaining](const TxnResult&) {
    op_finished(/*was_read=*/true);
    if (remaining > 1) issue_read_chain(reader, remaining - 1);
  });
}

void WorkloadDriver::issue_write_chain(std::size_t writer, std::size_t remaining) {
  submit_one(writer, /*is_read=*/false, [this, writer, remaining](const TxnResult&) {
    op_finished(/*was_read=*/false);
    if (remaining > 1) issue_write_chain(writer, remaining - 1);
  });
}

void WorkloadDriver::issue_mixed_chain(std::size_t client, std::size_t remaining) {
  const bool is_read = client_coins_[client].chance(opts_.read_fraction);
  submit_one(client, is_read, [this, client, remaining, is_read](const TxnResult&) {
    op_finished(is_read);
    if (remaining > 1) issue_mixed_chain(client, remaining - 1);
  });
}

void WorkloadDriver::schedule_arrival() {
  // The timer chain runs on one locally-owned node's executor, so arrival
  // state needs no locking: one arrival fires at a time.  On single-process
  // runtimes that anchor is node 0 (a server always exists); on NetRuntime
  // the client process owns no servers, so the anchor is its first client
  // node — which is how the open-loop driver paces a REMOTE fleet unchanged.
  const TimeNs now = rt_.now_ns();
  const TimeNs delay = next_deadline_ > now ? next_deadline_ - now : 0;
  rt_.post_after(timer_node_, delay, [this] { arrival_tick(); });
}

void WorkloadDriver::arrival_tick() {
  if (arrivals_left_ == 0) return;
  if (paused_.load(std::memory_order_acquire)) {
    rt_.post_after(timer_node_, pause_poll_ns(opts_.arrival_interval_ns),
                   [this] { arrival_tick(); });
    return;
  }
  // Absolute-deadline pacing with catch-up: every arrival whose deadline has
  // passed is issued NOW (late, but issued), and the timer re-arms for the
  // next future deadline.  A slow callback therefore delays individual
  // arrivals without stretching the period — the delivered rate tracks the
  // nominal rate instead of silently drifting below it.
  const TimeNs now = rt_.now_ns();
  while (arrivals_left_ > 0 && next_deadline_ <= now) {
    --arrivals_left_;
    const TimeNs deadline = next_deadline_;
    next_deadline_ += opts_.arrival_interval_ns;
    const std::size_t client = next_client_;
    next_client_ = (next_client_ + 1) % sys_.num_clients();
    const bool is_read = coin_.chance(opts_.read_fraction);
    submit_arrival(client, is_read, deadline);
    if (opts_.after_arrival) opts_.after_arrival();
  }
  if (arrivals_left_ > 0) schedule_arrival();
}

void WorkloadDriver::engine_schedule(std::size_t shard) {
  EngineShard& sh = shards_[shard];
  const TimeNs now = rt_.now_ns();
  const TimeNs delay = sh.next_deadline > now ? sh.next_deadline - now : 0;
  rt_.post_after(sh.anchor, delay, [this, shard] { engine_tick(shard); });
}

void WorkloadDriver::engine_tick(std::size_t shard) {
  EngineShard& sh = shards_[shard];
  if (sh.arrivals_left == 0) return;
  if (paused_.load(std::memory_order_acquire)) {
    rt_.post_after(sh.anchor, pause_poll_ns(opts_.arrival_interval_ns),
                   [this, shard] { engine_tick(shard); });
    return;
  }
  // Same absolute-deadline catch-up as the legacy chain, per shard; the
  // inter-arrival base can vary along the model's rate curve.
  const auto stride = static_cast<TimeNs>(shards_.size());
  const TimeNs now = rt_.now_ns();
  while (sh.arrivals_left > 0 && sh.next_deadline <= now) {
    --sh.arrivals_left;
    const TimeNs deadline = sh.next_deadline;
    submit_engine_arrival(sh, deadline);
    if (opts_.after_arrival) opts_.after_arrival();
    const TimeNs base =
        sh.traffic->next_interval(deadline - start_ns_, opts_.arrival_interval_ns);
    sh.next_deadline += base * stride;
  }
  if (sh.arrivals_left > 0) engine_schedule(shard);
}

void WorkloadDriver::op_finished(bool was_read) {
  (was_read ? reads_done_ : writes_done_).fetch_add(1, std::memory_order_acq_rel);
  if (remaining_ops_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // The last completion publishes `finished_` and notifies under mu_, and
    // done()/wait() report done only under mu_, so no caller can see the
    // driver done (and destroy it) while this executor is still in here.
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    cv_.notify_all();
  }
}

bool WorkloadDriver::done() const {
  if (remaining_ops_.load(std::memory_order_acquire) != 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

void WorkloadDriver::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return finished_; });
}

LatencySummary summarize_latency(const History& h, bool reads) {
  Histogram hist;
  for (const auto& t : h.txns) {
    if (!t.complete || t.is_read != reads) continue;
    hist.record(t.respond_ns >= t.invoke_ns ? t.respond_ns - t.invoke_ns : 0);
  }
  return summarize_histogram(hist);
}

int max_read_rounds(const History& h) {
  int r = 0;
  for (const auto& t : h.txns) {
    if (t.complete && t.is_read) r = std::max(r, t.rounds);
  }
  return r;
}

int max_read_versions(const History& h) {
  int v = 0;
  for (const auto& t : h.txns) {
    if (t.complete && t.is_read) v = std::max(v, t.max_versions);
  }
  return v;
}

}  // namespace snowkit
