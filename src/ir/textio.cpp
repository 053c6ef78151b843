#include "ir/textio.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

namespace tms::ir {
namespace {

const std::map<std::string, Opcode>& opcode_names() {
  static const std::map<std::string, Opcode> names = {
      {"iadd", Opcode::kIAdd},   {"isub", Opcode::kISub}, {"imul", Opcode::kIMul},
      {"shift", Opcode::kShift}, {"logic", Opcode::kLogic}, {"cmp", Opcode::kCmp},
      {"cmov", Opcode::kCMov},   {"fadd", Opcode::kFAdd}, {"fsub", Opcode::kFSub},
      {"fmul", Opcode::kFMul},   {"fdiv", Opcode::kFDiv}, {"fsqrt", Opcode::kFSqrt},
      {"fcmp", Opcode::kFCmp},   {"fcvt", Opcode::kFCvt}, {"load", Opcode::kLoad},
      {"store", Opcode::kStore}, {"lea", Opcode::kLea},   {"copy", Opcode::kCopy},
      {"nop", Opcode::kNop},
  };
  return names;
}

// Names are free-form (workload generators embed expressions like
// "y - x[i-1]"), so the text format quotes any name the tokeniser would
// otherwise split or misread, with C-style escapes for the characters
// that would break a quoted, line-oriented form.
bool needs_quoting(const std::string& name) {
  if (name.empty()) return true;
  for (const char c : name) {
    if (c == ' ' || c == '\t' || c == '"' || c == '#' || c == '\\' || c == '\n' || c == '\r') {
      return true;
    }
  }
  return false;
}

void write_name(std::ostream& os, const std::string& name) {
  if (!needs_quoting(name)) {
    os << name;
    return;
  }
  os << '"';
  for (const char c : name) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

/// Reads a possibly-quoted name token. False on a malformed (unclosed
/// quote, bad escape) or missing name.
bool read_name(std::istream& ls, std::string& out) {
  ls >> std::ws;
  if (ls.peek() != '"') return static_cast<bool>(ls >> out);
  ls.get();
  out.clear();
  for (int c = ls.get(); c != EOF; c = ls.get()) {
    if (c == '"') return true;
    if (c != '\\') {
      out.push_back(static_cast<char>(c));
      continue;
    }
    switch (ls.get()) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      default: return false;
    }
  }
  return false;  // unterminated quote
}

/// Erases a '#' comment, ignoring '#' inside quoted names.
void strip_comment(std::string& line) {
  bool in_quote = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quote && c == '\\') {
      ++i;
    } else if (c == '"') {
      in_quote = !in_quote;
    } else if (c == '#' && !in_quote) {
      line.erase(i);
      return;
    }
  }
}

/// Prints `v` with the fewest digits that read back exactly. Matters
/// beyond aesthetics: serialised loop text is the ScheduleCache's key
/// content, so two loops whose probabilities differ only past the
/// default six significant digits must not serialise identically.
void write_double(std::ostream& os, double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  os << buf;
}

bool parse_dep_type(const std::string& word, DepType& out) {
  if (word == "flow") {
    out = DepType::kFlow;
  } else if (word == "anti") {
    out = DepType::kAnti;
  } else if (word == "output") {
    out = DepType::kOutput;
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::variant<Loop, ParseError> parse_loop(std::istream& in) {
  Loop loop;
  std::map<std::string, NodeId> ids;
  bool named = false;
  std::string line;
  int lineno = 0;

  auto fail = [&](const std::string& msg) { return ParseError{lineno, msg}; };

  while (std::getline(in, line)) {
    ++lineno;
    strip_comment(line);
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw)) continue;  // blank line

    if (kw == "loop") {
      std::string name;
      if (!read_name(ls, name)) return fail("'loop' requires a name");
      loop.set_name(name);
      named = true;
    } else if (kw == "coverage") {
      double c = 0.0;
      if (!(ls >> c) || c < 0.0 || c > 1.0) return fail("'coverage' requires a value in [0,1]");
      loop.set_coverage(c);
    } else if (kw == "instr") {
      std::string name;
      std::string opname;
      if (!read_name(ls, name) || !(ls >> opname)) return fail("'instr' requires: name opcode");
      if (ids.count(name) != 0) return fail("duplicate instruction name '" + name + "'");
      const auto it = opcode_names().find(opname);
      if (it == opcode_names().end()) return fail("unknown opcode '" + opname + "'");
      ids[name] = loop.add_instr(it->second, name);
    } else if (kw == "reg" || kw == "mem") {
      std::string src;
      std::string dst;
      int distance = 0;
      if (!read_name(ls, src) || !read_name(ls, dst) || !(ls >> distance)) {
        return fail("'" + kw + "' requires: src dst distance");
      }
      if (ids.count(src) == 0) return fail("unknown instruction '" + src + "'");
      if (ids.count(dst) == 0) return fail("unknown instruction '" + dst + "'");
      if (distance < 0) return fail("distance must be >= 0");
      if (distance > kMaxDistance) {
        ParseError err = fail("distance " + std::to_string(distance) + " exceeds the bound " +
                              std::to_string(kMaxDistance));
        err.over_bound = true;
        return err;
      }
      double probability = 1.0;
      if (kw == "mem" && !(ls >> probability)) {
        return fail("'mem' requires a probability after the distance");
      }
      if (probability <= 0.0 || probability > 1.0) {
        return fail("probability must be in (0,1]");
      }
      DepType type = DepType::kFlow;
      std::string tw;
      if (ls >> tw && !parse_dep_type(tw, type)) {
        return fail("unknown dependence type '" + tw + "'");
      }
      loop.add_dep(ids[src], ids[dst], kw == "reg" ? DepKind::kRegister : DepKind::kMemory,
                   type, distance, probability);
    } else if (kw == "livein") {
      std::string name;
      if (!read_name(ls, name)) return fail("'livein' requires an instruction name");
      if (ids.count(name) == 0) return fail("unknown instruction '" + name + "'");
      loop.mark_live_in(ids[name]);
    } else {
      return fail("unknown keyword '" + kw + "'");
    }
  }
  if (!named) {
    lineno = 0;
    return fail("missing 'loop <name>' header");
  }
  if (const auto err = loop.validate()) {
    lineno = 0;
    return fail("invalid loop: " + *err);
  }
  return loop;
}

std::variant<Loop, ParseError> parse_loop_string(const std::string& text) {
  std::istringstream in(text);
  return parse_loop(in);
}

std::string serialise_loop(const Loop& loop) {
  std::ostringstream os;
  os << "loop ";
  write_name(os, loop.name());
  os << "\n";
  if (loop.coverage() > 0.0) {
    os << "coverage ";
    write_double(os, loop.coverage());
    os << "\n";
  }
  for (const Instr& ins : loop.instrs()) {
    os << "instr ";
    write_name(os, ins.name);
    os << " " << to_string(ins.op) << "\n";
  }
  for (const DepEdge& e : loop.deps()) {
    const char* type = e.type == DepType::kFlow    ? "flow"
                       : e.type == DepType::kAnti ? "anti"
                                                  : "output";
    os << (e.kind == DepKind::kRegister ? "reg " : "mem ");
    write_name(os, loop.instr(e.src).name);
    os << " ";
    write_name(os, loop.instr(e.dst).name);
    os << " " << e.distance;
    if (e.kind == DepKind::kMemory) {
      os << " ";
      write_double(os, e.probability);
    }
    os << " " << type << "\n";
  }
  for (const NodeId v : loop.live_ins()) {
    os << "livein ";
    write_name(os, loop.instr(v).name);
    os << "\n";
  }
  return os.str();
}

}  // namespace tms::ir
