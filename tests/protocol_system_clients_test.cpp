// ProtocolSystem's unified clients: how client(i) routes onto the protocol's
// reader and writer nodes, and how its FIFO slots queue back-to-back
// submissions.  Scripted adversary schedules and every driver rely on both.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

constexpr std::size_t kObjects = 3;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kWriters = 3;

/// One protocol of each builder family.
const char* const kFamilies[] = {"algo-a", "simple", "blocking-2pl", "eiger", "algo-b"};

struct Rig {
  explicit Rig(const std::string& protocol) {
    BuildOptions opts;
    if (protocol == "algo-a") opts.set("allow_multiple_readers", true);
    sys = build_protocol(protocol, sim, rec, SystemConfig{kObjects, kReaders, kWriters}, opts);
    sim.start();
  }

  SimRuntime sim;
  HistoryRecorder rec{kObjects};
  std::unique_ptr<ProtocolSystem> sys;
};

TEST(ProtocolSystemClients, ClientIRoutesToReaderIModRAndWriterIModW) {
  for (const char* protocol : kFamilies) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol);
    ASSERT_EQ(rig.sys->num_readers(), kReaders);
    ASSERT_EQ(rig.sys->num_writers(), kWriters);
    ASSERT_EQ(rig.sys->num_clients(), kWriters);
    for (std::size_t i = 0; i < rig.sys->num_clients(); ++i) {
      rig.sys->client(i).submit(write_txn({{0, static_cast<Value>(i + 1)}}), nullptr);
      rig.sim.run_until_idle();
      rig.sys->client(i).submit(read_txn({0}), nullptr);
      rig.sim.run_until_idle();
    }
    // Every builder lays out servers, then readers, then writers.
    const NodeId first_reader = static_cast<NodeId>(rig.sys->num_servers());
    const NodeId first_writer = static_cast<NodeId>(first_reader + kReaders);
    const History h = rig.rec.snapshot();
    ASSERT_EQ(h.txns.size(), 2 * rig.sys->num_clients());
    for (std::size_t i = 0; i < rig.sys->num_clients(); ++i) {
      const TxnRecord& w = h.txns[2 * i];
      const TxnRecord& r = h.txns[2 * i + 1];
      ASSERT_TRUE(w.complete && r.complete) << "client " << i;
      EXPECT_FALSE(w.is_read);
      EXPECT_TRUE(r.is_read);
      EXPECT_EQ(w.client, first_writer + i % kWriters) << "client " << i;
      EXPECT_EQ(r.client, first_reader + i % kReaders) << "client " << i;
      EXPECT_EQ(r.client, rig.sys->reader_node(i % kReaders)) << "client " << i;
    }
  }
}

TEST(ProtocolSystemClients, BackToBackSubmitsCompleteInSubmissionOrder) {
  for (const char* protocol : kFamilies) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol);
    TxnClient& client = rig.sys->client(1);
    std::vector<int> done;
    std::vector<TxnResult> results;
    const auto record = [&](int n) {
      return [&, n](const TxnResult& r) {
        done.push_back(n);
        results.push_back(r);
      };
    };
    // Three WRITEs, then three READs, all queued before the sim runs.
    for (int n = 0; n < 3; ++n) client.submit(write_txn({{0, 10 + n}, {1, 20 + n}}), record(n));
    for (int n = 3; n < 6; ++n) client.submit(read_txn({0, 1}), record(n));
    rig.sim.run_until_idle();

    // READs and WRITEs queue in different slots, so only the order within
    // each kind is fixed.
    ASSERT_EQ(done.size(), 6u);
    std::vector<int> writes;
    std::vector<int> reads;
    for (std::size_t j = 0; j < done.size(); ++j) {
      const bool is_read = done[j] >= 3;
      (is_read ? reads : writes).push_back(done[j]);
      EXPECT_EQ(results[j].is_read, is_read);
      EXPECT_EQ(results[j].values.size(), is_read ? 2u : 0u);
    }
    EXPECT_EQ(writes, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(reads, (std::vector<int>{3, 4, 5}));

    // The slot keeps the protocol client well-formed: each transaction is
    // invoked only after its predecessor on the same node responded.
    const History h = rig.rec.snapshot();
    std::vector<const TxnRecord*> by_kind[2];
    for (const TxnRecord& t : h.txns) by_kind[t.is_read ? 1 : 0].push_back(&t);
    for (const auto& txns : by_kind) {
      ASSERT_EQ(txns.size(), 3u);
      for (std::size_t j = 1; j < txns.size(); ++j) {
        EXPECT_TRUE(History::precedes(*txns[j - 1], *txns[j])) << "txn " << txns[j]->id;
      }
    }
  }
}

}  // namespace
}  // namespace snowkit
