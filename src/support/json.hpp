// Minimal streaming JSON writer.
//
// The batch driver and the bench binaries emit machine-readable reports
// (BatchReport JSON, the bench binaries' --json output); the matching
// strict reader lives in support/json_parse.hpp. Output is compact (no whitespace)
// and fully deterministic: the same sequence of calls yields the same
// bytes, which is what lets driver_test assert byte-identical reports
// across thread counts. Doubles are formatted with "%.10g", so any value
// that survives a round-trip through the pipeline deterministically
// formats the same way on every run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tms::support {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the key of the next member; must be inside an object.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value_null();

  /// Splices `json` — which must already be one serialised JSON value —
  /// in as the next value, verbatim. Used to embed a snapshot another
  /// process emitted (e.g. a backend's STATS payload inside the
  /// router's cluster-stats-v1) without a parse/re-serialise round trip.
  JsonWriter& raw_value(std::string_view json);

  /// Convenience: key + value in one call.
  template <typename T>
  JsonWriter& member(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  const std::string& str() const { return out_; }

  static std::string escape(std::string_view s);

 private:
  void comma_if_needed();

  std::string out_;
  /// One entry per open container: true once the first element has been
  /// written (so the next element needs a leading comma).
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace tms::support
