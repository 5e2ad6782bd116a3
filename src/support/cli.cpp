#include "support/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "support/error.hpp"

namespace topomap {

namespace {

/// `parse(v, &pos)` over the whole of `v`.  Trailing junk or a malformed
/// value throws precondition_error("option --<name> is <kind>: '<v>'"), an
/// out-of-range one "... is out of range: '<v>'".
template <class Parse>
auto parse_whole(const std::string& name, const std::string& v, Parse parse,
                 const char* kind) {
  std::size_t pos = 0;
  try {
    const auto out = parse(v, &pos);
    if (pos == v.size()) return out;
  } catch (const std::out_of_range&) {
    kind = "out of range";
  } catch (const std::invalid_argument&) {
  }
  throw precondition_error("option --" + name + " is " + kind + ": '" + v +
                           "'");
}

std::int64_t parse_integer(const std::string& name, const std::string& v) {
  const auto stoll = [](const std::string& s, std::size_t* pos) {
    return static_cast<std::int64_t>(std::stoll(s, pos));
  };
  return parse_whole(name, v, stoll, "not an integer");
}

std::uint64_t parse_unsigned(const std::string& name, const std::string& v) {
  const auto stoull = [](const std::string& s, std::size_t* pos) {
    // std::stoull accepts a sign and wraps a negative value: refuse it.
    const std::size_t first = s.find_first_not_of(" \t\n\v\f\r");
    if (first != std::string::npos && s[first] == '-')
      throw std::out_of_range(s);
    return static_cast<std::uint64_t>(std::stoull(s, pos));
  };
  return parse_whole(name, v, stoull, "not an integer");
}

double parse_real(const std::string& name, const std::string& v) {
  const auto stod = [](const std::string& s, std::size_t* pos) {
    return std::stod(s, pos);
  };
  return parse_whole(name, v, stod, "not a number");
}

/// The non-empty comma-separated items of `list`, each parsed by `parse`.
template <class Parse>
auto parse_list(const std::string& name, const std::string& list,
                Parse parse) {
  std::vector<decltype(parse(name, list))> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(parse(name, item));
  return out;
}

}  // namespace

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {
  add_flag("help", "print this help text");
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  TOPOMAP_REQUIRE(!options_.count(name), "duplicate option: " + name);
  options_[name] = Option{help, "false", /*is_flag=*/true, false};
}

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  TOPOMAP_REQUIRE(!options_.count(name), "duplicate option: " + name);
  options_[name] = Option{help, default_value, /*is_flag=*/false, false};
}

bool CliParser::parse(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "topomap-bin";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unexpected positional argument: " << arg << "\n"
                << usage();
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(arg);
    if (it == options_.end()) {
      std::cerr << "unknown option: --" << arg << "\n" << usage();
      return false;
    }
    Option& opt = it->second;
    if (opt.is_flag) {
      if (has_value) {
        std::cerr << "flag --" << arg << " does not take a value\n";
        return false;
      }
      opt.value = "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          std::cerr << "option --" << arg << " needs a value\n";
          return false;
        }
        value = argv[++i];
      }
      opt.value = value;
    }
    opt.seen = true;
  }
  if (flag("help")) {
    std::cout << usage();
    return false;
  }
  return true;
}

const CliParser::Option& CliParser::lookup(const std::string& name) const {
  auto it = options_.find(name);
  TOPOMAP_REQUIRE(it != options_.end(), "option was never registered: " + name);
  return it->second;
}

bool CliParser::flag(const std::string& name) const {
  return lookup(name).value == "true";
}

std::string CliParser::str(const std::string& name) const {
  return lookup(name).value;
}

std::int64_t CliParser::integer(const std::string& name) const {
  return parse_integer(name, lookup(name).value);
}

std::uint64_t CliParser::unsigned_integer(const std::string& name) const {
  return parse_unsigned(name, lookup(name).value);
}

double CliParser::real(const std::string& name) const {
  return parse_real(name, lookup(name).value);
}

std::vector<std::int64_t> CliParser::int_list(const std::string& name) const {
  return parse_list(name, lookup(name).value, parse_integer);
}

std::vector<double> CliParser::real_list(const std::string& name) const {
  return parse_list(name, lookup(name).value, parse_real);
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nusage: " << program_ << " [options]\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_flag) os << "=<" << opt.value << ">";
    os << "\n      " << opt.help << "\n";
  }
  return os.str();
}

}  // namespace topomap
