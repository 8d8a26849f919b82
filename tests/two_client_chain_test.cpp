// The Fig. 4 construction (Theorem 2) must reproduce end to end.
#include <gtest/gtest.h>

#include <iterator>

#include "theory/two_client_chain.hpp"

namespace snowkit::theory {
namespace {

TEST(TwoClientChain, AllStepsVerify) {
  TwoClientChainResult result = run_two_client_chain();
  ASSERT_GE(result.steps.size(), 7u);  // alpha, beta, gamma/eta, delta(0..4)
  for (const auto& step : result.steps) {
    EXPECT_TRUE(step.verified) << step.name << ": " << step.note;
  }
}

TEST(TwoClientChain, EveryStepIsPinned) {
  // Pins the sim schedule of every step through the READ's return values,
  // and the flip the descent finds.
  struct Pin {
    const char* name;
    const char* read_values;
  };
  const Pin pins[] = {
      {"alpha", "-"},
      {"beta", "(x1,y1)"},
      {"gamma/eta", "(x1,y1)"},
      {"delta(k=0)", "(x0,y0)"},
      {"delta(k=1)", "(x1,y0)"},
      {"delta(k=2)", "(x1,y1)"},
      {"delta(k=3)", "(x1,y1)"},
      {"delta(k=4)", "(x1,y1)"},
  };
  TwoClientChainResult result = run_two_client_chain();
  ASSERT_EQ(result.steps.size(), std::size(pins));
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    EXPECT_EQ(result.steps[i].name, pins[i].name) << "step " << i;
    EXPECT_EQ(result.steps[i].read_values, pins[i].read_values) << result.steps[i].name;
  }
  EXPECT_EQ(result.flip_k, 2);
  EXPECT_EQ(result.flip_location, "n1 (server)");
}

TEST(TwoClientChain, BetaReturnsNewValues) {
  TwoClientChainResult result = run_two_client_chain();
  EXPECT_EQ(result.steps[1].name, "beta");
  EXPECT_EQ(result.steps[1].read_values, "(x1,y1)");
}

TEST(TwoClientChain, GammaMovesSendsBeforeInvW) {
  TwoClientChainResult result = run_two_client_chain();
  EXPECT_EQ(result.steps[2].name, "gamma/eta");
  EXPECT_EQ(result.steps[2].read_values, "(x1,y1)");
}

TEST(TwoClientChain, DescentFlipsAtAServer) {
  TwoClientChainResult result = run_two_client_chain();
  EXPECT_GE(result.flip_k, 1) << "the flip cannot happen with zero W events delivered";
  EXPECT_NE(result.flip_location.find("server"), std::string::npos)
      << "a_{k*+1} occurs at a server — the case Lemma 5 / Theorem 2 contradict";
}

TEST(TwoClientChain, IntermediateScheduleFractures) {
  TwoClientChainResult result = run_two_client_chain();
  EXPECT_TRUE(result.fracture_found);
  EXPECT_FALSE(result.fracture.empty());
}

}  // namespace
}  // namespace snowkit::theory
