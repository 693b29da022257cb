// Minimal command-line flag parser shared by the examples and the benchmark
// harnesses. Supports `--name value` and `--name=value`, typed lookups with
// defaults, and an auto-generated --help listing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppscan {

class Flags {
 public:
  /// Parses argv. Non-flag arguments are collected as positionals.
  /// Unknown flags are accepted (they become lookupable values) so harnesses
  /// can share common parsing code; first_unknown() lets a front end
  /// reject them instead.
  Flags(int argc, const char* const* argv);

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] bool has(const std::string& name) const;
  /// The first given flag (in name order) not in `known`, or "" when every
  /// given flag is known. For front ends that reject flags they do not
  /// read; the bench harnesses keep accepting anything.
  [[nodiscard]] std::string first_unknown(
      const std::vector<std::string>& known) const;
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace ppscan
