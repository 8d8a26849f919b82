// The Fig. 3 chain (Theorem 1) must reproduce end to end.
#include <gtest/gtest.h>

#include <iterator>

#include "checker/serializability.hpp"
#include "theory/alpha_chain.hpp"

namespace snowkit::theory {
namespace {

TEST(AlphaChain, FullChainReproduces) {
  AlphaChainResult result = run_alpha_chain();
  ASSERT_EQ(result.steps.size(), 6u);
  for (const auto& step : result.steps) {
    EXPECT_TRUE(step.verified) << step.name << ": " << step.note;
  }
  EXPECT_EQ(result.steps[0].name, "alpha6");
  EXPECT_EQ(result.steps[0].r1_values, "(x0,y0)");
  EXPECT_EQ(result.steps[0].r2_values, "(x1,y1)");
  EXPECT_TRUE(result.s_violated) << "alpha10 realization must violate S";
  EXPECT_FALSE(result.violation.empty());
}

TEST(AlphaChain, Alpha6HasTheLemma10FragmentOrder) {
  AlphaChainResult result = run_alpha_chain();
  EXPECT_EQ(result.steps[0].order, "I2 ◦ I1 ◦ F1x ◦ F2y ◦ F1y ◦ E1 ◦ F2x ◦ E2");
}

TEST(AlphaChain, Alpha10PutsR2WhollyBeforeR1) {
  AlphaChainResult result = run_alpha_chain();
  const auto& a10 = result.steps[4];
  EXPECT_EQ(a10.name, "alpha10");
  EXPECT_EQ(a10.order, "I2 ◦ F2y ◦ F2x ◦ E2 ◦ I1 ◦ F1x ◦ F1y ◦ E1");
}

TEST(AlphaChain, EveryStepIsPinned) {
  // Pins the sim schedule of every step: its fragment order and both READs'
  // return values.
  struct Pin {
    const char* name;
    const char* order;
    const char* r1_values;
    const char* r2_values;
  };
  const Pin pins[] = {
      {"alpha6", "I2 ◦ I1 ◦ F1x ◦ F2y ◦ F1y ◦ E1 ◦ F2x ◦ E2", "(x0,y0)", "(x1,y1)"},
      {"alpha7", "I2 ◦ I1 ◦ F1x ◦ F2y ◦ F2x ◦ F1y ◦ E1 ◦ E2", "(x0,y0)", "(x1,y1)"},
      {"alpha8", "I2 ◦ F2y ◦ I1 ◦ F1x ◦ F2x ◦ F1y ◦ E1 ◦ E2", "(x0,y0)", "(x1,y1)"},
      {"alpha9", "I2 ◦ F2y ◦ I1 ◦ F2x ◦ F1x ◦ F1y ◦ E1 ◦ E2", "(x0,y0)", "(x1,y1)"},
      {"alpha10", "I2 ◦ F2y ◦ F2x ◦ E2 ◦ I1 ◦ F1x ◦ F1y ◦ E1", "(x0,y0)", "(x1,y1)"},
      {"alpha10*", "P ◦ R2 ◦ R1 ◦ S", "(x0,y0)", "(x1,y1)"},
  };
  AlphaChainResult result = run_alpha_chain();
  ASSERT_EQ(result.steps.size(), std::size(pins));
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    const ChainStep& step = result.steps[i];
    EXPECT_EQ(step.name, pins[i].name) << "step " << i;
    EXPECT_EQ(step.order, pins[i].order) << step.name;
    EXPECT_EQ(step.r1_values, pins[i].r1_values) << step.name;
    EXPECT_EQ(step.r2_values, pins[i].r2_values) << step.name;
  }
}

TEST(AlphaChain, FinalHistoryRejectedByChecker) {
  AlphaChainResult result = run_alpha_chain();
  auto verdict = check_strict_serializability(result.final_history);
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(find_stale_reread(result.final_history).empty());
}

}  // namespace
}  // namespace snowkit::theory
