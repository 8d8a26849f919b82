// Determinism regression: the replay contract the fuzzer depends on.
//
// Same (protocol, workload, schedule seed) => byte-identical sim/trace
// output across two independent SimRuntime runs, for EVERY registered
// protocol; and a recorded ScheduleLog replayed over the same case
// reproduces the run byte-identically.  If any protocol picks up a source
// of nondeterminism (iteration over an unordered container, a stray
// wall-clock read), this test names it.
#include <gtest/gtest.h>

#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "fuzz/fuzz_case.hpp"
#include "sim/trace.hpp"

namespace snowkit::fuzz {
namespace {

class EveryProtocolDeterminism : public testing::TestWithParam<std::string> {};

TEST_P(EveryProtocolDeterminism, SameSeedSameTraceBytes) {
  const std::string& name = GetParam();
  GenParams params;
  params.max_ops_per_client = 8;
  for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
    const FuzzCase c = generate_case(name, params, seed);
    const CaseRun first = run_case(c);
    const CaseRun second = run_case(c);
    ASSERT_TRUE(first.completed) << name << " seed " << seed;
    const auto bytes_a = encode_trace(first.trace);
    const auto bytes_b = encode_trace(second.trace);
    EXPECT_EQ(bytes_a, bytes_b) << name << " seed " << seed
                                << ": two runs of the same case diverged";
    EXPECT_EQ(first.log, second.log) << name << " seed " << seed;
    EXPECT_EQ(trace_fingerprint(first.trace), trace_fingerprint(second.trace));
  }
}

TEST_P(EveryProtocolDeterminism, RecordedLogReplaysByteIdentically) {
  const std::string& name = GetParam();
  GenParams params;
  params.max_ops_per_client = 8;
  const FuzzCase c = generate_case(name, params, /*seed=*/5);
  const CaseRun recorded = run_case(c);
  ASSERT_TRUE(recorded.completed) << name;
  const CaseRun replayed = replay_case(c, recorded.log);
  ASSERT_TRUE(replayed.completed) << name;
  EXPECT_FALSE(replayed.stats.guard_tripped)
      << name << ": an exact replay must never fall back to the drain guard";
  EXPECT_EQ(encode_trace(recorded.trace), encode_trace(replayed.trace)) << name;
  EXPECT_EQ(recorded.log, replayed.log) << name << ": replay must re-record the same log";
}

INSTANTIATE_TEST_SUITE_P(Fuzz, EveryProtocolDeterminism,
                         testing::ValuesIn(registered_protocols()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string n = info.param;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(FuzzDeterminism, DifferentSeedsGiveDifferentSchedules) {
  GenParams params;
  const FuzzCase a = generate_case("algo-b", params, 1);
  const FuzzCase b = generate_case("algo-b", params, 2);
  EXPECT_NE(a, b);
  const CaseRun ra = run_case(a);
  const CaseRun rb = run_case(b);
  EXPECT_NE(encode_trace(ra.trace), encode_trace(rb.trace));
}

TEST(FuzzDeterminism, TraceCodecRoundTrips) {
  const FuzzCase c = generate_case("algo-c", GenParams{}, 11);
  const CaseRun run = run_case(c);
  const auto bytes = encode_trace(run.trace);
  const Trace decoded = decode_trace(bytes);
  ASSERT_EQ(decoded.size(), run.trace.size());
  EXPECT_EQ(encode_trace(decoded), bytes);
  EXPECT_EQ(decoded.to_text(), run.trace.to_text());
}

// --- GC on vs off (the watermark version store must not perturb replay) -----

/// Where no pruning-visible difference exists — a read-only program sends no
/// finalize traffic in either mode — the GC'd store must be BYTE-IDENTICAL
/// to keep-everything: same messages, same trace, same fingerprint.
TEST(FuzzDeterminism, GcOnOffByteIdenticalWhenNoPruningIsVisible) {
  for (const std::string kind : {"algo-b", "algo-c"}) {
    std::vector<std::uint8_t> traces[2];
    for (const bool gc : {false, true}) {
      SimRuntime sim(make_uniform_delay(10, 9'000, /*seed=*/5));
      HistoryRecorder rec(3);
      BuildOptions opts;
      opts.set("gc_versions", gc);
      auto sys = build_protocol(kind, sim, rec, SystemConfig{3, 2, 1}, opts);
      WorkloadSpec spec;
      spec.ops_per_reader = 12;
      spec.ops_per_writer = 0;  // read-only: no finalize traffic either way
      spec.read_span = 2;
      spec.seed = 5;
      WorkloadDriver driver(sim, *sys, spec);
      driver.start();
      sim.run_until_idle();
      traces[gc ? 1 : 0] = encode_trace(sim.trace());
    }
    EXPECT_EQ(traces[0], traces[1])
        << kind << ": GC mode diverged on a pruning-invisible (read-only) program";
  }
}

/// With writes in play the finalize fan-out makes the traces differ, but the
/// client-visible outcome must not: both modes stay strictly serializable
/// and agree on the quiescent state (single writer => a unique final value
/// per object).
TEST(FuzzDeterminism, GcOnOffAgreeOnQuiescentStateAndSafety) {
  for (const std::string kind : {"algo-b", "algo-c"}) {
    for (std::uint64_t seed : {3ull, 11ull}) {
      std::vector<std::pair<ObjectId, Value>> finals[2];
      for (const bool gc : {false, true}) {
        SimRuntime sim(make_uniform_delay(10, 9'000, seed));
        HistoryRecorder rec(3);
        BuildOptions opts;
        opts.set("gc_versions", gc);
        auto sys = build_protocol(kind, sim, rec, SystemConfig{3, 2, 1}, opts);
        WorkloadSpec spec;
        spec.ops_per_reader = 15;
        spec.ops_per_writer = 15;
        spec.read_span = 2;
        spec.write_span = 2;
        spec.seed = seed;
        WorkloadDriver driver(sim, *sys, spec);
        driver.start();
        sim.run_until_idle();
        TxnResult result;
        sys->client(0).submit(read_txn({0, 1, 2}), [&](const TxnResult& r) { result = r; });
        sim.run_until_idle();
        finals[gc ? 1 : 0] = result.values;
        auto verdict = check_tag_order(rec.snapshot());
        EXPECT_TRUE(verdict.ok) << kind << " seed " << seed << " gc=" << gc << ": "
                                << verdict.explanation;
      }
      EXPECT_EQ(finals[0], finals[1]) << kind << " seed " << seed
                                      << ": GC changed the quiescent state";
    }
  }
}

TEST(FuzzDeterminism, ScheduleLogCodecRoundTrips) {
  const FuzzCase c = generate_case("eiger", GenParams{}, 3);
  const CaseRun run = run_case(c);
  ASSERT_FALSE(run.log.decisions.empty());
  BufWriter w;
  encode_schedule_log(run.log, w);
  const auto bytes = w.take();
  BufReader r(bytes);
  const ScheduleLog decoded = decode_schedule_log(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded, run.log);
}

}  // namespace
}  // namespace snowkit::fuzz
