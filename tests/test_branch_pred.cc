/** @file Unit tests for the hashed-perceptron branch predictor. */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/branch_pred.h"

namespace moka {
namespace {

TEST(BranchPredictor, LearnsBiasedBranch)
{
    BranchPredictor bp(BranchPredConfig{});
    const Addr pc = 0x400100;
    for (int i = 0; i < 200; ++i) {
        bp.update(pc, true);
    }
    EXPECT_TRUE(bp.predict(pc));
}

TEST(BranchPredictor, LearnsLoopPattern)
{
    // Taken 15x then not-taken once, repeating: perceptron with
    // history should get most of these right after warmup.
    BranchPredictor bp(BranchPredConfig{});
    const Addr pc = 0x400200;
    // Warmup.
    for (int i = 0; i < 64 * 16; ++i) {
        bp.update(pc, (i % 16) != 15);
    }
    unsigned correct = 0;
    const unsigned n = 16 * 64;
    for (unsigned i = 0; i < n; ++i) {
        const bool taken = (i % 16) != 15;
        if (bp.predict(pc) == taken) {
            ++correct;
        }
        bp.update(pc, taken);
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.90);
}

TEST(BranchPredictor, CountsMispredicts)
{
    BranchPredictor bp(BranchPredConfig{});
    const Addr pc = 0x400300;
    for (int i = 0; i < 100; ++i) {
        bp.update(pc, true);
    }
    const std::uint64_t before = bp.mispredicts();
    bp.update(pc, false);  // guaranteed surprise
    EXPECT_EQ(bp.mispredicts(), before + 1);
}

TEST(BranchPredictor, RandomBranchNearChance)
{
    BranchPredictor bp(BranchPredConfig{});
    Rng rng(3);
    const Addr pc = 0x400400;
    unsigned correct = 0;
    const unsigned n = 4000;
    for (unsigned i = 0; i < n; ++i) {
        const bool taken = rng.chance(0.5);
        if (bp.predict(pc) == taken) {
            ++correct;
        }
        bp.update(pc, taken);
    }
    // No predictor beats a fair coin by much.
    EXPECT_NEAR(static_cast<double>(correct) / n, 0.5, 0.06);
}

TEST(BranchPredictor, DistinctPcsIndependent)
{
    BranchPredictor bp(BranchPredConfig{});
    for (int i = 0; i < 300; ++i) {
        bp.update(0x400500, true);
        bp.update(0x400504, false);
    }
    // Predict each branch at its own point in the interleaving: the
    // opposite biases must not bleed into each other.
    unsigned correct = 0;
    for (int i = 0; i < 100; ++i) {
        correct += bp.predict(0x400500) == true ? 1 : 0;
        bp.update(0x400500, true);
        correct += bp.predict(0x400504) == false ? 1 : 0;
        bp.update(0x400504, false);
    }
    EXPECT_GT(correct, 190u);
}

TEST(BranchPredictorDeath, NonPow2EntriesAbort)
{
    BranchPredConfig cfg;
    cfg.entries = 96;
    EXPECT_DEATH({ BranchPredictor bp(cfg); },
                 "branch-predictor entries must be a power of two");
}

}  // namespace
}  // namespace moka
