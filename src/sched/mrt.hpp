// Modulo reservation table (MRT).
//
// Tracks functional-unit occupancy and issue-slot usage per modulo row.
// An instruction placed at absolute cycle c occupies:
//   - one issue slot at row c mod II, and
//   - its functional unit at rows (c mod II) .. (c + occupancy - 1 mod II).
// Non-pipelined units (occupancy > 1) therefore wrap around the table,
// which is exactly why ResII must account for total occupancy.
//
// can_place() is the innermost probe of every scheduler in the tree (it
// runs once per candidate cycle per node per relaxation-ladder rung), so
// the table keeps two representations: exact per-row usage counts, and
// "full-row" bitmaps — bit r is set exactly when row r has no capacity
// left (issue slots exhausted, or the FU class at its unit count). A
// probe is then one or two bit tests plus a word-wise scan for
// non-pipelined ranges, instead of `occupancy` indexed count compares.
// The counts remain authoritative; the bitmaps are derived on every
// place/remove and only answer "full or not". tests/mrt_test.cpp keeps
// the original count-only table as a reference and asserts, over
// randomized machine shapes and operation sequences, that the bitmap
// fast path answers bit-for-bit like it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ir/opcode.hpp"
#include "machine/machine.hpp"
#include "support/assert.hpp"

namespace tms::sched {

class ModuloReservationTable {
 public:
  ModuloReservationTable(const machine::MachineModel& mach, int ii);

  /// Re-dimensions the table for a new II and clears every reservation,
  /// reusing the existing storage. Equivalent to constructing afresh;
  /// this is what lets the TMS relaxation ladder recycle one table
  /// across hundreds of attempts instead of reallocating each time.
  void reset(int ii);

  int ii() const { return ii_; }

  /// Mathematical modulo: result in [0, ii) even for negative cycles.
  int row_of(int cycle) const {
    const int r = cycle % ii_;
    return r < 0 ? r + ii_ : r;
  }

  bool can_place(ir::Opcode op, int cycle) const;
  void place(ir::Opcode op, int cycle);
  void remove(ir::Opcode op, int cycle);

  int issue_used(int row) const { return issue_used_.at(static_cast<std::size_t>(row)); }
  int fu_used(ir::FuClass c, int row) const {
    TMS_ASSERT(row >= 0 && row < ii_);
    return fu_used_[static_cast<std::size_t>(c) * static_cast<std::size_t>(ii_) +
                    static_cast<std::size_t>(row)];
  }

 private:
  static bool test_bit(const std::uint64_t* bits, int i) {
    return (bits[i >> 6] >> (i & 63)) & 1u;
  }
  static void set_bit(std::uint64_t* bits, int i) { bits[i >> 6] |= std::uint64_t{1} << (i & 63); }
  static void clear_bit(std::uint64_t* bits, int i) {
    bits[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  /// Any bit set in [lo, hi)? Word-wise, no wrap handling (callers split).
  static bool any_set(const std::uint64_t* bits, int lo, int hi);

  const std::uint64_t* fu_full(ir::FuClass c) const {
    return fu_full_.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(words_);
  }
  std::uint64_t* fu_full(ir::FuClass c) {
    return fu_full_.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(words_);
  }

  const machine::MachineModel& mach_;
  int ii_ = 0;
  int words_ = 0;                        ///< 64-bit words per bitmap
  std::vector<int> issue_used_;          ///< per row
  std::vector<int> fu_used_;             ///< [class * ii + row]
  std::vector<std::uint64_t> issue_full_;  ///< bit r: issue slots at row r exhausted
  std::vector<std::uint64_t> fu_full_;     ///< [class][word]; bit r: FU class full at row r
  std::array<int, ir::kNumFuClasses> fu_limit_{};  ///< cached unit counts
};

}  // namespace tms::sched
