#include "support/file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace tms::support {

std::optional<std::string> write_file_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  auto fail = [&](const char* what, const std::string& file) {
    const std::string err = std::string(what) + " " + file + ": " + std::strerror(errno);
    std::remove(tmp.c_str());
    return err;
  };
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return fail("cannot open", tmp);
  const bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // fclose flushes the stdio buffer, so most short writes surface here.
  if (std::fclose(f) != 0 || !written) return fail("cannot write", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) return fail("cannot rename to", path);
  return std::nullopt;
}

}  // namespace tms::support
