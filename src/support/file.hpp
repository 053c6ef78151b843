// Whole-file writes that replace a file atomically.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace tms::support {

/// Writes `text` to `path` + ".tmp" and renames it over `path`, so a
/// reader of `path` sees either the old file or the complete new one.
/// When the temporary file cannot be opened, written or closed (a short
/// write on a full disk fails at one of these), or the rename fails, it
/// returns a one-line error, removes the temporary file and leaves `path`
/// as it was.
std::optional<std::string> write_file_atomic(const std::string& path, std::string_view text);

}  // namespace tms::support
