// Loop IR: an innermost loop body plus its data dependence graph (DDG).
//
// This is the input to both SMS and TMS. A loop is a list of instructions
// (one iteration of the body) and a set of dependence edges. Each edge
// carries:
//   - kind: register or memory dependence,
//   - type: flow / anti / output,
//   - distance: number of iterations between producer and consumer
//     (0 = intra-iteration),
//   - probability: for memory dependences, the profiled fraction of
//     producer executions whose value is actually read by the consumer
//     (Section 4.2 of the paper); register dependences always have
//     probability 1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/opcode.hpp"
#include "support/assert.hpp"

namespace tms::ir {

using NodeId = int;
constexpr NodeId kInvalidNode = -1;

/// Largest dependence distance a loop may carry. The schedulers and the
/// validator form II * distance in int, which stays in range for every
/// II below 32,768 under this bound, and a lifetime that spans the
/// distance stays short enough to walk cycle by cycle.
constexpr int kMaxDistance = 65536;

enum class DepKind : std::uint8_t { kRegister, kMemory };
enum class DepType : std::uint8_t { kFlow, kAnti, kOutput };

struct Instr {
  NodeId id = kInvalidNode;
  Opcode op = Opcode::kNop;
  std::string name;  ///< debug label, e.g. "n5" or "load a[i-1]"
};

struct DepEdge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  DepKind kind = DepKind::kRegister;
  DepType type = DepType::kFlow;
  int distance = 0;          ///< iteration distance d(src,dst) >= 0
  double probability = 1.0;  ///< memory flow deps: profiled hit fraction

  bool is_register_flow() const { return kind == DepKind::kRegister && type == DepType::kFlow; }
  bool is_memory_flow() const { return kind == DepKind::kMemory && type == DepType::kFlow; }
};

/// An innermost loop: one iteration's instructions + the DDG over them.
class Loop {
 public:
  Loop() = default;
  explicit Loop(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Pre-sizes the instruction, edge, and adjacency-spine storage for a
  /// builder about to add roughly this many instructions and edges, so
  /// construction does not re-allocate per push.
  void reserve(int instrs, std::size_t deps);

  NodeId add_instr(Opcode op, std::string name = {});

  /// Adds a dependence edge. Distance must be >= 0 and probability in
  /// (0, 1]. Returns the edge index.
  std::size_t add_dep(NodeId src, NodeId dst, DepKind kind, DepType type, int distance,
                      double probability = 1.0);

  std::size_t add_reg_flow(NodeId src, NodeId dst, int distance = 0) {
    return add_dep(src, dst, DepKind::kRegister, DepType::kFlow, distance);
  }
  std::size_t add_mem_flow(NodeId src, NodeId dst, int distance, double probability) {
    return add_dep(src, dst, DepKind::kMemory, DepType::kFlow, distance, probability);
  }

  int num_instrs() const { return static_cast<int>(instrs_.size()); }
  const Instr& instr(NodeId id) const { return instrs_.at(static_cast<std::size_t>(id)); }
  const std::vector<Instr>& instrs() const { return instrs_; }

  const std::vector<DepEdge>& deps() const { return deps_; }
  const DepEdge& dep(std::size_t i) const { return deps_.at(i); }

  /// Outgoing / incoming edge indices per node.
  const std::vector<std::size_t>& out_edges(NodeId id) const {
    return out_.at(static_cast<std::size_t>(id));
  }
  const std::vector<std::size_t>& in_edges(NodeId id) const {
    return in_.at(static_cast<std::size_t>(id));
  }

  /// Live-in values consumed by a node from outside the loop (used by the
  /// simulator's live-in broadcast); purely informational for scheduling.
  void mark_live_in(NodeId id) { live_ins_.push_back(id); }
  const std::vector<NodeId>& live_ins() const { return live_ins_; }

  /// Fraction of whole-program execution time spent in this loop
  /// (Table 3's "LC" column); used to turn loop speedups into program
  /// speedups via Amdahl's law.
  double coverage() const { return coverage_; }
  void set_coverage(double c) {
    TMS_ASSERT(c >= 0.0 && c <= 1.0);
    coverage_ = c;
  }

  /// Validation: all edge endpoints in range, distances in
  /// [0, kMaxDistance], probability sane. Returns an error description or
  /// nullopt if well-formed.
  std::optional<std::string> validate() const;

 private:
  std::string name_;
  std::vector<Instr> instrs_;
  std::vector<DepEdge> deps_;
  std::vector<std::vector<std::size_t>> out_;
  std::vector<std::vector<std::size_t>> in_;
  std::vector<NodeId> live_ins_;
  double coverage_ = 0.0;
};

}  // namespace tms::ir
