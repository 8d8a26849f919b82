// Inventory-audit scenario: strict serializability as a business invariant.
//
// A warehouse's stock for one SKU is spread across shards.  Transfer
// transactions move stock between two shards (total conserved); an auditor
// repeatedly multi-gets all shards and checks that the sum equals the known
// total.  Under a strictly serializable READ transaction the audit can
// never observe a transfer "in flight"; with plain parallel reads it can.
//
// Transfers are blind multi-object WRITEs (the paper's OT type): each writer
// owns a disjoint pair of shards and tracks its pair's balances locally, so
// writes never race on a shard.
#include <cstdio>
#include <map>

#include "core/system.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

using namespace snowkit;

namespace {

constexpr Value kPerShard = 250;

struct AuditStats {
  int audits = 0;
  int inconsistent = 0;
  Value worst_sum = 0;
};

/// Runs transfers on writer-owned shard pairs with interleaved audits.
/// `adversarial` delays one leg of some transfers to maximize the window.
AuditStats run_audits(const std::string& kind, bool adversarial, std::uint64_t seed) {
  const std::size_t shards = 4;
  SimRuntime rt(make_uniform_delay(50'000, 1'500'000, seed));
  HistoryRecorder recorder(shards);
  auto system = build_protocol(kind, rt, recorder, SystemConfig{shards, 1, 2});
  rt.start();

  const Value total = kPerShard * static_cast<Value>(shards);
  // Writer w owns shards {2w, 2w+1}; local bookkeeping of the pair.
  std::map<ObjectId, Value> book{{0, kPerShard}, {1, kPerShard}, {2, kPerShard}, {3, kPerShard}};

  AuditStats stats;
  Xoshiro256 rng(seed);

  // Seed the stock: each writer stores the initial balances of its pair
  // (the objects' default initial value is 0, not kPerShard).
  for (std::size_t w = 0; w < 2; ++w) {
    const ObjectId a = static_cast<ObjectId>(2 * w);
    const ObjectId b = static_cast<ObjectId>(2 * w + 1);
    system->client(w).submit(write_txn({{a, book[a]}, {b, book[b]}}), [](const TxnResult&) {});
    rt.run_until_idle();
  }

  for (int round = 0; round < 40; ++round) {
    // Each writer transfers a random amount within its pair.
    for (std::size_t w = 0; w < 2; ++w) {
      const ObjectId a = static_cast<ObjectId>(2 * w);
      const ObjectId b = static_cast<ObjectId>(2 * w + 1);
      const Value amount = static_cast<Value>(rng.below(50)) + 1;
      book[a] -= amount;
      book[b] += amount;
      if (adversarial && rng.chance(0.5)) {
        // Delay the write leg to shard b: the transfer is visibly torn for
        // any protocol whose READs are not strictly serializable.
        rt.hold_matching(script::any_of({script::all_of({script::payload_is("simple-write"),
                                                         script::to_node(b)}),
                                         script::all_of({script::payload_is("write-val"),
                                                         script::to_node(b)})}));
      }
      system->client(w).submit(write_txn({{a, book[a]}, {b, book[b]}}), [](const TxnResult&) {});
      rt.run_until_idle();

      // Audit while the transfer may still be in flight.
      Value sum = -1;
      system->client(0).submit(read_txn(all_objects(shards)), [&](const TxnResult& r) {
        sum = 0;
        for (const auto& [obj, v] : r.values) {
          (void)obj;
          sum += v;
        }
      });
      rt.run_until_idle();
      rt.hold_matching(nullptr);
      rt.release_all();
      rt.run_until_idle();

      ++stats.audits;
      if (sum != total) {
        ++stats.inconsistent;
        if (stats.worst_sum == 0 || std::llabs(sum - total) > std::llabs(stats.worst_sum - total)) {
          stats.worst_sum = sum;
        }
      }
    }
  }
  return stats;
}

}  // namespace

int main() {
  std::printf("inventory audit: 4 shards x %lld units, transfers conserve the total (%lld)\n\n",
              static_cast<long long>(kPerShard), static_cast<long long>(kPerShard * 4));
  std::printf("%-10s %-12s %8s %14s %12s\n", "protocol", "schedule", "audits", "bad audits",
              "worst sum");
  for (const char* kind : {"naive", "algo-c", "algo-b"}) {
    for (bool adversarial : {false, true}) {
      AuditStats stats{};
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        AuditStats s = run_audits(kind, adversarial, seed);
        stats.audits += s.audits;
        stats.inconsistent += s.inconsistent;
        if (s.worst_sum != 0) stats.worst_sum = s.worst_sum;
      }
      char worst[32] = "-";
      if (stats.worst_sum != 0) {
        std::snprintf(worst, sizeof worst, "%lld", static_cast<long long>(stats.worst_sum));
      }
      std::printf("%-10s %-12s %8d %14d %12s\n", kind,
                  adversarial ? "adversarial" : "benign", stats.audits, stats.inconsistent, worst);
    }
  }
  std::printf("\ntakeaway: naive parallel multi-gets report phantom shrinkage/creation the\n"
              "moment the network misbehaves; Algorithms B and C never do — the audit is a\n"
              "strictly serializable READ transaction, at one (C) or two (B) rounds.\n");
  return 0;
}
