#include "sched/mrt.hpp"

#include <algorithm>

namespace tms::sched {

ModuloReservationTable::ModuloReservationTable(const machine::MachineModel& mach, int ii)
    : mach_(mach) {
  reset(ii);
}

void ModuloReservationTable::reset(int ii) {
  TMS_ASSERT(ii >= 1);
  ii_ = ii;
  words_ = (ii + 63) / 64;
  const auto rows = static_cast<std::size_t>(ii);
  const auto words = static_cast<std::size_t>(words_);
  issue_used_.assign(rows, 0);
  fu_used_.assign(ir::kNumFuClasses * rows, 0);
  issue_full_.assign(words, 0);
  fu_full_.assign(ir::kNumFuClasses * words, 0);
  for (std::size_t c = 0; c < ir::kNumFuClasses; ++c) {
    fu_limit_[c] = mach_.fu_count(static_cast<ir::FuClass>(c));
  }
  // A class with zero units is full on every row; pre-setting the bitmap
  // keeps the probe branch-free (the count path rejected via `0 >= 0`).
  for (std::size_t c = 0; c < ir::kNumFuClasses; ++c) {
    if (fu_limit_[c] == 0) {
      std::uint64_t* full = fu_full(static_cast<ir::FuClass>(c));
      for (int r = 0; r < ii_; ++r) set_bit(full, r);
    }
  }
}

bool ModuloReservationTable::any_set(const std::uint64_t* bits, int lo, int hi) {
  if (lo >= hi) return false;
  const int wlo = lo >> 6;
  const int whi = (hi - 1) >> 6;
  const std::uint64_t head = ~std::uint64_t{0} << (lo & 63);
  const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
  if (wlo == whi) return (bits[wlo] & head & tail) != 0;
  if ((bits[wlo] & head) != 0) return true;
  for (int w = wlo + 1; w < whi; ++w) {
    if (bits[w] != 0) return true;
  }
  return (bits[whi] & tail) != 0;
}

bool ModuloReservationTable::can_place(ir::Opcode op, int cycle) const {
  const ir::FuClass c = ir::fu_class(op);
  if (c == ir::FuClass::kNone) return true;
  const int row = row_of(cycle);
  if (test_bit(issue_full_.data(), row)) return false;
  const int occ = mach_.occupancy(op);
  // A non-pipelined op whose occupancy reaches II would need the unit on
  // every row; allowed only if occupancy <= II.
  if (occ > ii_) return false;
  const std::uint64_t* full = fu_full(c);
  if (occ == 1) return !test_bit(full, row);
  const int wrap = row + occ - ii_;  // rows past the table end, if any
  if (wrap <= 0) return !any_set(full, row, row + occ);
  return !any_set(full, row, ii_) && !any_set(full, 0, wrap);
}

void ModuloReservationTable::place(ir::Opcode op, int cycle) {
  TMS_ASSERT(can_place(op, cycle));
  const ir::FuClass c = ir::fu_class(op);
  if (c == ir::FuClass::kNone) return;
  const int row = row_of(cycle);
  if (++issue_used_[static_cast<std::size_t>(row)] >= mach_.issue_width()) {
    set_bit(issue_full_.data(), row);
  }
  int* used = fu_used_.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(ii_);
  std::uint64_t* full = fu_full(c);
  const int limit = fu_limit_[static_cast<std::size_t>(c)];
  for (int k = 0; k < mach_.occupancy(op); ++k) {
    const int r = row_of(cycle + k);
    if (++used[r] >= limit) set_bit(full, r);
  }
}

void ModuloReservationTable::remove(ir::Opcode op, int cycle) {
  const ir::FuClass c = ir::fu_class(op);
  if (c == ir::FuClass::kNone) return;
  const int row = row_of(cycle);
  TMS_ASSERT(issue_used_[static_cast<std::size_t>(row)] > 0);
  if (--issue_used_[static_cast<std::size_t>(row)] < mach_.issue_width()) {
    clear_bit(issue_full_.data(), row);
  }
  int* used = fu_used_.data() + static_cast<std::size_t>(c) * static_cast<std::size_t>(ii_);
  std::uint64_t* full = fu_full(c);
  const int limit = fu_limit_[static_cast<std::size_t>(c)];
  for (int k = 0; k < mach_.occupancy(op); ++k) {
    const int r = row_of(cycle + k);
    TMS_ASSERT(used[r] > 0);
    if (--used[r] < limit) clear_bit(full, r);
  }
}

}  // namespace tms::sched
