#include "ir/loop.hpp"

#include <sstream>

namespace tms::ir {

void Loop::reserve(int instrs, std::size_t deps) {
  TMS_ASSERT(instrs >= 0);
  const auto n = static_cast<std::size_t>(instrs);
  instrs_.reserve(n);
  out_.reserve(n);
  in_.reserve(n);
  deps_.reserve(deps);
}

NodeId Loop::add_instr(Opcode op, std::string name) {
  const NodeId id = static_cast<NodeId>(instrs_.size());
  if (name.empty()) {
    name = "n" + std::to_string(id);
  }
  instrs_.push_back(Instr{id, op, std::move(name)});
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

std::size_t Loop::add_dep(NodeId src, NodeId dst, DepKind kind, DepType type, int distance,
                          double probability) {
  TMS_ASSERT(src >= 0 && src < num_instrs());
  TMS_ASSERT(dst >= 0 && dst < num_instrs());
  TMS_ASSERT(distance >= 0);
  TMS_ASSERT(probability > 0.0 && probability <= 1.0);
  const std::size_t idx = deps_.size();
  deps_.push_back(DepEdge{src, dst, kind, type, distance, probability});
  out_[static_cast<std::size_t>(src)].push_back(idx);
  in_[static_cast<std::size_t>(dst)].push_back(idx);
  return idx;
}

std::optional<std::string> Loop::validate() const {
  std::ostringstream err;
  if (instrs_.empty()) return "loop has no instructions";
  for (std::size_t i = 0; i < deps_.size(); ++i) {
    const DepEdge& e = deps_[i];
    if (e.src < 0 || e.src >= num_instrs() || e.dst < 0 || e.dst >= num_instrs()) {
      err << "edge " << i << " has out-of-range endpoint";
      return err.str();
    }
    if (e.distance < 0) {
      err << "edge " << i << " has negative distance";
      return err.str();
    }
    if (e.distance > kMaxDistance) {
      err << "edge " << i << " distance " << e.distance << " exceeds the bound " << kMaxDistance;
      return err.str();
    }
    if (e.distance == 0 && e.src == e.dst) {
      err << "edge " << i << " is a zero-distance self-loop (unschedulable)";
      return err.str();
    }
    if (e.probability <= 0.0 || e.probability > 1.0) {
      err << "edge " << i << " probability out of (0,1]";
      return err.str();
    }
    if (e.kind == DepKind::kMemory) {
      const Opcode so = instr(e.src).op;
      const Opcode do_ = instr(e.dst).op;
      if (!is_memory(so) || !is_memory(do_)) {
        err << "memory edge " << i << " between non-memory instructions";
        return err.str();
      }
    }
  }
  // Intra-iteration (distance-0) register/memory edges must form a DAG,
  // otherwise no schedule of a single iteration exists.
  std::vector<int> indeg(static_cast<std::size_t>(num_instrs()), 0);
  for (const DepEdge& e : deps_) {
    if (e.distance == 0) ++indeg[static_cast<std::size_t>(e.dst)];
  }
  std::vector<NodeId> stack;
  for (NodeId v = 0; v < num_instrs(); ++v) {
    if (indeg[static_cast<std::size_t>(v)] == 0) stack.push_back(v);
  }
  int seen = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    ++seen;
    for (std::size_t ei : out_edges(v)) {
      const DepEdge& e = deps_[ei];
      if (e.distance != 0) continue;
      if (--indeg[static_cast<std::size_t>(e.dst)] == 0) stack.push_back(e.dst);
    }
  }
  if (seen != num_instrs()) {
    return "distance-0 dependence cycle: a single iteration cannot be sequenced";
  }
  return std::nullopt;
}

}  // namespace tms::ir
