// The coordinator round of a READ costs O(span), not O(k): the get-tag-arr
// names only the READ's objects and the tag array carries entries for them
// only.  A span-2 READ's get-tag-arr + tag-arr bytes must be (nearly) the
// same in a 64-object and a 4096-object system; with dense masks and
// per-object tag arrays they differed by about 9 KB.  In memory too, every
// object set a message carries holds its members, not one slot per object.
#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

/// Sums the encoded bytes of the coordinator round's two messages, and
/// records the largest object set of each kind as delivered (the simulator
/// delivers the decoded copy of every message).
class CoordinatorRound final : public MessageObserver {
 public:
  void on_send(NodeId, NodeId, const Message& m, std::size_t bytes) override {
    const std::string name = payload_name(m.payload);
    if (name == "get-tag-arr" || name == "tag-arr" || name == "adapt-tag-arr") total += bytes;
  }
  void on_deliver(NodeId, NodeId, const Message& m) override {
    if (const auto* gt = std::get_if<GetTagArrReq>(&m.payload)) see(want, gt->want);
    if (const auto* uc = std::get_if<UpdateCoorReq>(&m.payload)) see(mask, uc->mask);
    if (const auto* ta = std::get_if<AdaptTagArrResp>(&m.payload)) see(modes, ta->modes);
  }
  /// Largest delivered set, or nullopt before one is seen.
  using Largest = std::optional<std::size_t>;
  std::uint64_t total = 0;
  Largest want, mask, modes;

 private:
  template <typename Set>
  static void see(Largest& largest, const Set& set) {
    largest = std::max(largest.value_or(0), set.size());
  }
};

struct SpanRead {
  std::uint64_t tag_arr_bytes = 0;
  std::vector<std::pair<ObjectId, Value>> values;
  CoordinatorRound::Largest want, mask, modes;
};

/// One span-2 WRITE, then one span-2 READ naming its objects out of order.
SpanRead span2_read(const std::string& protocol, std::size_t k) {
  SimRuntime sim;
  CoordinatorRound observed;
  sim.set_observer(&observed);
  HistoryRecorder rec(k);
  SystemConfig cfg{k, 1, 1, 4, PlacementKind::kRange};
  auto sys = build_protocol(protocol, sim, rec, cfg);
  sim.start();

  bool wrote = false;
  sys->client(0).submit(write_txn({{5, 11}, {40, 12}}), [&](const TxnResult&) { wrote = true; });
  sim.run_until_idle();
  EXPECT_TRUE(wrote);

  SpanRead out;
  bool read = false;
  sys->client(0).submit(read_txn({40, 5}), [&](const TxnResult& r) {
    out.values = r.values;
    read = true;
  });
  sim.run_until_idle();
  EXPECT_TRUE(read);
  out.tag_arr_bytes = observed.total;
  out.want = observed.want;
  out.mask = observed.mask;
  out.modes = observed.modes;
  return out;
}

TEST(TagArrSpan, CoordinatorRoundBytesDoNotGrowWithK) {
  for (const char* protocol : {"algo-b", "adaptive", "algo-c", "occ-reads"}) {
    const SpanRead small = span2_read(protocol, 64);
    const SpanRead large = span2_read(protocol, 4096);
    const std::vector<std::pair<ObjectId, Value>> want{{40, 12}, {5, 11}};
    EXPECT_EQ(small.values, want) << protocol;
    EXPECT_EQ(large.values, want) << protocol;
    EXPECT_GT(small.tag_arr_bytes, 0u) << protocol;
    const std::uint64_t diff = large.tag_arr_bytes > small.tag_arr_bytes
                                   ? large.tag_arr_bytes - small.tag_arr_bytes
                                   : small.tag_arr_bytes - large.tag_arr_bytes;
    EXPECT_LE(diff, 16u) << protocol << ": k=64 " << small.tag_arr_bytes << " B, k=4096 "
                         << large.tag_arr_bytes << " B";
  }
}

TEST(TagArrSpan, DecodedObjectSetsHoldTheSpanNotK) {
  // At k = 4096 a span-2 READ's `want`, a span-2 WRITE's `mask` and, in a
  // quiet adaptive system (no object near C-mode), the tag array's `modes`
  // each decode to at most 2 elements.  A dense mask decodes to 4096.
  for (const char* protocol : {"algo-b", "adaptive"}) {
    const SpanRead r = span2_read(protocol, 4096);
    ASSERT_TRUE(r.want.has_value()) << protocol;
    ASSERT_TRUE(r.mask.has_value()) << protocol;
    EXPECT_LE(*r.want, 2u) << protocol;
    EXPECT_LE(*r.mask, 2u) << protocol;
    if (std::string(protocol) == "adaptive") {
      ASSERT_TRUE(r.modes.has_value());
      EXPECT_LE(*r.modes, 2u);
    }
  }
}

}  // namespace
}  // namespace snowkit
