// Plain-text serialisation of loops, so workloads can live in files and
// the command-line driver (tools/tmsc) can schedule user-provided loops.
//
// Format (line oriented, '#' comments):
//
//   loop  dotprod
//   coverage 0.42
//   instr i    iadd
//   instr a    load
//   instr m    fmul
//   instr s    fadd
//   reg   i i 1          # register flow dep, distance 1
//   reg   i a 0
//   reg   a m 0
//   reg   m s 0
//   reg   s s 1
//   livein i
//   livein s
//
// `reg`/`mem` take "src dst distance [flow|anti|output]"; `mem` adds a
// probability before the optional type. Instruction names are unique
// identifiers.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>

#include "ir/loop.hpp"

namespace tms::ir {

struct ParseError {
  int line = 0;
  std::string message;
  /// The text is well-formed but a value exceeds a documented bound (a
  /// dependence distance above kMaxDistance).
  bool over_bound = false;
};

/// Parses a loop; returns the loop or a ParseError naming the offending
/// line.
std::variant<Loop, ParseError> parse_loop(std::istream& in);
std::variant<Loop, ParseError> parse_loop_string(const std::string& text);

/// Serialises in the same format; parse(serialise(l)) is structurally
/// identical to l.
std::string serialise_loop(const Loop& loop);

}  // namespace tms::ir
