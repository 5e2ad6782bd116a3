// Minimal command-line option parsing for bench/example binaries.
//
// Supports `--key=value`, `--key value`, and boolean `--flag` forms.
// Unknown options are an error so typos in sweep scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace topomap {

class CliParser {
 public:
  CliParser(std::string program_description);

  /// Register options before calling parse(). `help` appears in usage().
  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);

  /// Parses argv. Returns false (after printing usage) on `--help` or on a
  /// malformed/unknown option.
  bool parse(int argc, const char* const* argv);

  /// Whether `name` was registered (commands sharing one reader of a flag
  /// family register different subsets).
  bool has(const std::string& name) const { return options_.count(name) > 0; }
  bool flag(const std::string& name) const;
  std::string str(const std::string& name) const;
  /// The option's value, parsed whole.  A malformed or out-of-range value
  /// throws precondition_error naming the option.
  std::int64_t integer(const std::string& name) const;
  /// The option's value as an unsigned 64-bit integer, parsed whole: a
  /// negative value is out of range, not wrapped.
  std::uint64_t unsigned_integer(const std::string& name) const;
  double real(const std::string& name) const;

  /// integer() as the integer type T: a value T cannot hold throws
  /// precondition_error naming the option (checked_narrow) instead of
  /// wrapping through a cast.
  template <class T>
  T integer_as(const std::string& name) const {
    return checked_narrow<T>(integer(name), "option --" + name);
  }

  /// Comma-separated integer list, e.g. `--sizes=64,256,1024`; each item
  /// is parsed like integer().
  std::vector<std::int64_t> int_list(const std::string& name) const;
  std::vector<double> real_list(const std::string& name) const;

  std::string usage() const;

 private:
  struct Option {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool seen = false;
  };

  const Option& lookup(const std::string& name) const;

  std::string description_;
  std::string program_;
  std::map<std::string, Option> options_;
};

}  // namespace topomap
