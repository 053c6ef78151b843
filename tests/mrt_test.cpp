#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sched/mrt.hpp"

namespace tms::sched {
namespace {

using ir::Opcode;

/// The pre-bitmap MRT, kept verbatim as the differential-testing
/// reference for ModuloReservationTable (see sched/mrt.hpp). Scalar
/// per-row counts only; asymptotically slower probes, trivially correct.
class ScalarReferenceMrt {
 public:
  ScalarReferenceMrt(const machine::MachineModel& mach, int ii);

  int ii() const { return ii_; }
  int row_of(int cycle) const {
    const int r = cycle % ii_;
    return r < 0 ? r + ii_ : r;
  }

  bool can_place(ir::Opcode op, int cycle) const;
  void place(ir::Opcode op, int cycle);
  void remove(ir::Opcode op, int cycle);

  int issue_used(int row) const { return issue_used_.at(static_cast<std::size_t>(row)); }
  int fu_used(ir::FuClass c, int row) const {
    return fu_used_[static_cast<std::size_t>(c)].at(static_cast<std::size_t>(row));
  }

 private:
  const machine::MachineModel& mach_;
  int ii_;
  std::vector<int> issue_used_;            ///< per row
  std::vector<std::vector<int>> fu_used_;  ///< [class][row]
};

ScalarReferenceMrt::ScalarReferenceMrt(const machine::MachineModel& mach, int ii)
    : mach_(mach), ii_(ii), issue_used_(static_cast<std::size_t>(ii), 0) {
  TMS_ASSERT(ii >= 1);
  fu_used_.assign(ir::kNumFuClasses, std::vector<int>(static_cast<std::size_t>(ii), 0));
}

bool ScalarReferenceMrt::can_place(ir::Opcode op, int cycle) const {
  const ir::FuClass c = ir::fu_class(op);
  const int row = row_of(cycle);
  if (c == ir::FuClass::kNone) return true;
  if (issue_used_[static_cast<std::size_t>(row)] >= mach_.issue_width()) return false;
  const int occ = mach_.occupancy(op);
  if (occ > ii_) return false;
  const int limit = mach_.fu_count(c);
  for (int k = 0; k < occ; ++k) {
    const int r = row_of(cycle + k);
    if (fu_used_[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)] >= limit) return false;
  }
  return true;
}

void ScalarReferenceMrt::place(ir::Opcode op, int cycle) {
  TMS_ASSERT(can_place(op, cycle));
  const ir::FuClass c = ir::fu_class(op);
  if (c == ir::FuClass::kNone) return;
  ++issue_used_[static_cast<std::size_t>(row_of(cycle))];
  for (int k = 0; k < mach_.occupancy(op); ++k) {
    ++fu_used_[static_cast<std::size_t>(c)][static_cast<std::size_t>(row_of(cycle + k))];
  }
}

void ScalarReferenceMrt::remove(ir::Opcode op, int cycle) {
  const ir::FuClass c = ir::fu_class(op);
  if (c == ir::FuClass::kNone) return;
  const int row = row_of(cycle);
  TMS_ASSERT(issue_used_[static_cast<std::size_t>(row)] > 0);
  --issue_used_[static_cast<std::size_t>(row)];
  for (int k = 0; k < mach_.occupancy(op); ++k) {
    const int r = row_of(cycle + k);
    TMS_ASSERT(fu_used_[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)] > 0);
    --fu_used_[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)];
  }
}


TEST(Mrt, RowOfHandlesNegativeCycles) {
  machine::MachineModel mach;
  ModuloReservationTable mrt(mach, 5);
  EXPECT_EQ(mrt.row_of(0), 0);
  EXPECT_EQ(mrt.row_of(7), 2);
  EXPECT_EQ(mrt.row_of(-1), 4);
  EXPECT_EQ(mrt.row_of(-5), 0);
  EXPECT_EQ(mrt.row_of(-7), 3);
}

TEST(Mrt, FuLimitEnforced) {
  machine::MachineModel mach;  // 1 memory port
  ModuloReservationTable mrt(mach, 4);
  EXPECT_TRUE(mrt.can_place(Opcode::kLoad, 2));
  mrt.place(Opcode::kLoad, 2);
  EXPECT_FALSE(mrt.can_place(Opcode::kLoad, 2));
  EXPECT_FALSE(mrt.can_place(Opcode::kLoad, 6));  // same row mod 4
  EXPECT_TRUE(mrt.can_place(Opcode::kLoad, 3));
}

TEST(Mrt, TwoIaluUnits) {
  machine::MachineModel mach;
  ModuloReservationTable mrt(mach, 3);
  mrt.place(Opcode::kIAdd, 0);
  EXPECT_TRUE(mrt.can_place(Opcode::kIAdd, 0));
  mrt.place(Opcode::kIAdd, 0);
  EXPECT_FALSE(mrt.can_place(Opcode::kIAdd, 0));
}

TEST(Mrt, IssueWidthEnforcedAcrossClasses) {
  machine::MachineModel mach;
  mach.set_issue_width(2);
  ModuloReservationTable mrt(mach, 4);
  mrt.place(Opcode::kIAdd, 1);
  mrt.place(Opcode::kFAdd, 1);
  // Different FU class but issue bandwidth at row 1 is exhausted.
  EXPECT_FALSE(mrt.can_place(Opcode::kLoad, 1));
  EXPECT_TRUE(mrt.can_place(Opcode::kLoad, 2));
}

TEST(Mrt, OccupancyWrapsAroundTable) {
  machine::MachineModel mach;
  machine::MachineModel custom;
  custom.set_timing(Opcode::kFMul, {4, 4});
  ModuloReservationTable mrt(custom, 3);
  // Occupancy 4 > II 3: cannot place at all.
  EXPECT_FALSE(mrt.can_place(Opcode::kFMul, 0));
  ModuloReservationTable mrt4(custom, 4);
  EXPECT_TRUE(mrt4.can_place(Opcode::kFMul, 1));
  mrt4.place(Opcode::kFMul, 1);
  // The single FP-mul unit is now busy on every row.
  for (int c = 0; c < 4; ++c) EXPECT_FALSE(mrt4.can_place(Opcode::kFMul, c));
}

TEST(Mrt, RemoveRestoresCapacity) {
  machine::MachineModel mach;
  ModuloReservationTable mrt(mach, 4);
  mrt.place(Opcode::kLoad, 1);
  EXPECT_FALSE(mrt.can_place(Opcode::kLoad, 1));
  mrt.remove(Opcode::kLoad, 1);
  EXPECT_TRUE(mrt.can_place(Opcode::kLoad, 1));
}

TEST(Mrt, ZeroResourceOpsAlwaysFit) {
  machine::MachineModel mach;
  mach.set_issue_width(1);
  ModuloReservationTable mrt(mach, 1);
  mrt.place(Opcode::kIAdd, 0);
  EXPECT_TRUE(mrt.can_place(Opcode::kNop, 0));  // FuClass::kNone
}

TEST(Mrt, UsageCountersTrack) {
  machine::MachineModel mach;
  ModuloReservationTable mrt(mach, 2);
  EXPECT_EQ(mrt.issue_used(0), 0);
  mrt.place(Opcode::kIAdd, 0);
  mrt.place(Opcode::kLoad, 0);
  EXPECT_EQ(mrt.issue_used(0), 2);
  EXPECT_EQ(mrt.fu_used(ir::FuClass::kIAlu, 0), 1);
  EXPECT_EQ(mrt.fu_used(ir::FuClass::kMem, 0), 1);
  EXPECT_EQ(mrt.fu_used(ir::FuClass::kMem, 1), 0);
}

// ---- Differential: bitmap fast path vs the scalar reference ------------
//
// The bitmap MRT must answer every probe bit-for-bit like the retained
// count-only implementation, across random machine shapes (issue width,
// FU counts, occupancies incl. non-pipelined wrap-around) and random
// interleavings of place/remove. Placements mirror between the two
// tables, so any divergence pinpoints a bitmap maintenance bug.

Opcode random_op(std::mt19937_64& rng) {
  static const Opcode kOps[] = {Opcode::kIAdd, Opcode::kISub, Opcode::kIMul, Opcode::kShift,
                                Opcode::kFAdd, Opcode::kFMul, Opcode::kLoad, Opcode::kStore,
                                Opcode::kNop};
  return kOps[rng() % (sizeof(kOps) / sizeof(kOps[0]))];
}

TEST(MrtDifferential, RandomisedAgainstScalarReference) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int trial = 0; trial < 200; ++trial) {
    machine::MachineModel mach;
    mach.set_issue_width(1 + static_cast<int>(rng() % 6));
    mach.set_fu_count(ir::FuClass::kIAlu, static_cast<int>(rng() % 4));
    mach.set_fu_count(ir::FuClass::kFpAdd, static_cast<int>(rng() % 3));
    mach.set_fu_count(ir::FuClass::kFpMul, static_cast<int>(rng() % 3));
    mach.set_fu_count(ir::FuClass::kMem, 1 + static_cast<int>(rng() % 3));
    // Non-pipelined multiplies exercise the wrap-around range scan.
    const int occ = 1 + static_cast<int>(rng() % 6);
    mach.set_timing(Opcode::kFMul, {4, occ});

    // IIs beyond 64 cross the bitmap's word boundary.
    const int ii = 1 + static_cast<int>(rng() % 90);
    ModuloReservationTable fast(mach, ii);
    ScalarReferenceMrt ref(mach, ii);

    struct Placed {
      Opcode op;
      int cycle;
    };
    std::vector<Placed> placed;
    for (int step = 0; step < 300; ++step) {
      if (!placed.empty() && rng() % 4 == 0) {
        const std::size_t i = rng() % placed.size();
        fast.remove(placed[i].op, placed[i].cycle);
        ref.remove(placed[i].op, placed[i].cycle);
        placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const Opcode op = random_op(rng);
      const int cycle = static_cast<int>(rng() % 200) - 100;  // negative cycles too
      const bool a = fast.can_place(op, cycle);
      const bool b = ref.can_place(op, cycle);
      ASSERT_EQ(a, b) << "trial " << trial << " step " << step << " ii=" << ii
                      << " op=" << static_cast<int>(op) << " cycle=" << cycle;
      if (a) {
        fast.place(op, cycle);
        ref.place(op, cycle);
        placed.push_back({op, cycle});
      }
    }
    // Authoritative counts agree row by row at the end of the trial.
    for (int r = 0; r < ii; ++r) {
      ASSERT_EQ(fast.issue_used(r), ref.issue_used(r));
      for (int c = 0; c < ir::kNumFuClasses; ++c) {
        const auto fc = static_cast<ir::FuClass>(c);
        ASSERT_EQ(fast.fu_used(fc, r), ref.fu_used(fc, r));
      }
    }
  }
}

TEST(MrtDifferential, ResetMatchesFreshConstruction) {
  std::mt19937_64 rng(0xBEEF);
  machine::MachineModel mach;
  ModuloReservationTable reused(mach, 7);
  for (int trial = 0; trial < 50; ++trial) {
    const int ii = 1 + static_cast<int>(rng() % 80);
    reused.reset(ii);
    ModuloReservationTable fresh(mach, ii);
    ScalarReferenceMrt ref(mach, ii);
    for (int step = 0; step < 60; ++step) {
      const Opcode op = random_op(rng);
      const int cycle = static_cast<int>(rng() % 120);
      const bool want = ref.can_place(op, cycle);
      ASSERT_EQ(reused.can_place(op, cycle), want) << "reused, trial " << trial;
      ASSERT_EQ(fresh.can_place(op, cycle), want) << "fresh, trial " << trial;
      if (want) {
        reused.place(op, cycle);
        fresh.place(op, cycle);
        ref.place(op, cycle);
      }
    }
  }
}

}  // namespace
}  // namespace tms::sched
