// Field splitting for spec strings (workload, topology and fault specs).
#pragma once

#include <string>
#include <vector>

namespace topomap {

/// `s` cut at every `sep`, keeping empty fields: "4x4x" gives {"4", "4", ""}
/// and "" gives {""}.  A stray or trailing separator so reaches the field's
/// parser as an empty field, which it rejects, instead of vanishing.
inline std::vector<std::string> split_fields(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t end; (end = s.find(sep, start)) != std::string::npos;
       start = end + 1)
    out.push_back(s.substr(start, end - start));
  out.push_back(s.substr(start));
  return out;
}

}  // namespace topomap
