// WorkloadDriver lifetime on ThreadRuntime: once done() reports true or
// wait() returns, no executor may still be inside the driver, so the caller
// can destroy it at once.  A last completion that published "done" before
// locking the driver's mutex to notify would let a caller returning from
// wait() free the driver under the executor's lock/notify.  Each round below
// destroys its driver immediately; ThreadSanitizer (CI's TSan job) reports
// any executor access after that as a data race.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "runtime/thread_runtime.hpp"

namespace snowkit {
namespace {

constexpr int kRounds = 200;

WorkloadSpec small_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.ops_per_reader = 2;
  spec.ops_per_writer = 2;
  spec.seed = seed;
  return spec;
}

TEST(DriverLifetime, DestroyRightAfterWait) {
  ThreadRuntime rt;
  HistoryRecorder rec(4);
  auto sys = build_protocol("algo-b", rt, rec, SystemConfig{4, 2, 2});
  rt.start();
  for (int round = 0; round < kRounds; ++round) {
    DriverOptions opts;
    opts.value_base = 1 + static_cast<std::uint64_t>(round) * 16;
    auto driver = std::make_unique<WorkloadDriver>(rt, *sys, small_spec(round), opts);
    driver->start();
    driver->wait();
    driver.reset();
  }
  rt.stop();
  const History h = rec.snapshot();
  EXPECT_EQ(h.completed_reads() + h.completed_writes(), static_cast<std::size_t>(kRounds) * 8);
}

TEST(DriverLifetime, DestroyRightAfterDonePolls) {
  ThreadRuntime rt;
  HistoryRecorder rec(4);
  auto sys = build_protocol("algo-c", rt, rec, SystemConfig{4, 2, 2});
  rt.start();
  for (int round = 0; round < kRounds; ++round) {
    DriverOptions opts;
    opts.value_base = 1 + static_cast<std::uint64_t>(round) * 16;
    auto driver = std::make_unique<WorkloadDriver>(rt, *sys, small_spec(round), opts);
    driver->start();
    while (!driver->done()) std::this_thread::yield();
    driver.reset();
  }
  rt.stop();
  const History h = rec.snapshot();
  EXPECT_EQ(h.completed_reads() + h.completed_writes(), static_cast<std::size_t>(kRounds) * 8);
}

}  // namespace
}  // namespace snowkit
