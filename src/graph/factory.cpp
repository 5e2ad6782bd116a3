#include "graph/factory.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

#include "graph/builders.hpp"
#include "graph/synthetic_md.hpp"
#include "support/error.hpp"
#include "support/split.hpp"

namespace topomap::graph {

namespace {

/// The field `s` of workload spec `spec` as one whole base-10 integer.
int parse_int(const std::string& s, const char* what, const std::string& spec) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos == s.size()) return v;
  } catch (const std::exception&) {
  }
  throw precondition_error(std::string("bad ") + what + " '" + s +
                           "' in workload spec " + spec);
}

/// The field `s` of workload spec `spec` as one whole real number.
double parse_real(const std::string& s, const char* what,
                  const std::string& spec) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos == s.size()) return v;
  } catch (const std::exception&) {
  }
  throw precondition_error(std::string("bad ") + what + " '" + s +
                           "' in workload spec " + spec);
}

std::vector<int> parse_dims(const std::string& s, const char* what,
                            const std::string& spec) {
  std::vector<int> dims;
  for (const auto& part : split_fields(s, 'x'))
    dims.push_back(parse_int(part, what, spec));
  return dims;
}

}  // namespace

TaskGraph make_task_graph(const std::string& spec, Rng& rng) {
  const auto parts = split_fields(spec, ':');
  TOPOMAP_REQUIRE(parts.size() >= 2,
                  "workload spec must look like kind:params, got: " + spec);
  const std::string& kind = parts[0];
  // A file path keeps its colons; every other kind has a fixed field count.
  if (kind == "file")
    return read_task_graph_file(spec.substr(kind.size() + 1));
  const auto at_most = [&](std::size_t fields) {
    TOPOMAP_REQUIRE(parts.size() <= fields,
                    "too many fields in workload spec " + spec);
  };

  if (kind == "stencil2d") {
    at_most(3);
    const auto dims = parse_dims(parts[1], "extent", spec);
    TOPOMAP_REQUIRE(dims.size() == 2, "stencil2d needs WxH");
    const double bytes =
        parts.size() > 2 ? parse_real(parts[2], "bytes", spec) : 1024.0;
    return stencil_2d(dims[0], dims[1], bytes);
  }
  if (kind == "stencil3d") {
    at_most(3);
    const auto dims = parse_dims(parts[1], "extent", spec);
    TOPOMAP_REQUIRE(dims.size() == 3, "stencil3d needs WxHxD");
    const double bytes =
        parts.size() > 2 ? parse_real(parts[2], "bytes", spec) : 1024.0;
    return stencil_3d(dims[0], dims[1], dims[2], bytes);
  }
  if (kind == "ring") {
    at_most(3);
    const double bytes =
        parts.size() > 2 ? parse_real(parts[2], "bytes", spec) : 1024.0;
    return ring(parse_int(parts[1], "size", spec), bytes);
  }
  if (kind == "complete") {
    at_most(3);
    const double bytes =
        parts.size() > 2 ? parse_real(parts[2], "bytes", spec) : 1024.0;
    return complete(parse_int(parts[1], "size", spec), bytes);
  }
  if (kind == "transpose") {
    at_most(3);
    const double bytes =
        parts.size() > 2 ? parse_real(parts[2], "bytes", spec) : 1024.0;
    return transpose(parse_int(parts[1], "grid side", spec), bytes);
  }
  if (kind == "butterfly") {
    at_most(3);
    const double bytes =
        parts.size() > 2 ? parse_real(parts[2], "bytes", spec) : 1024.0;
    return butterfly(parse_int(parts[1], "stages", spec), bytes);
  }
  if (kind == "er") {
    at_most(4);
    TOPOMAP_REQUIRE(parts.size() >= 3, "er spec is er:n:p[:maxbytes]");
    const double max_bytes =
        parts.size() > 3 ? parse_real(parts[3], "bytes", spec) : 1024.0;
    return random_graph(parse_int(parts[1], "size", spec),
                        parse_real(parts[2], "probability", spec), 1.0,
                        max_bytes, rng);
  }
  if (kind == "rgg") {
    at_most(4);
    TOPOMAP_REQUIRE(parts.size() >= 3, "rgg spec is rgg:n:radius[:bytes]");
    const double bytes =
        parts.size() > 3 ? parse_real(parts[3], "bytes", spec) : 1024.0;
    return random_geometric(parse_int(parts[1], "size", spec),
                            parse_real(parts[2], "radius", spec), bytes, rng);
  }
  if (kind == "md") {
    at_most(3);
    const auto dims = parse_dims(parts[1], "cell extent", spec);
    TOPOMAP_REQUIRE(dims.size() == 3, "md needs CXxCYxCZ cells");
    MdParams params;
    params.cells_x = dims[0];
    params.cells_y = dims[1];
    params.cells_z = dims[2];
    if (parts.size() > 2)
      params.atoms_per_cell = parse_real(parts[2], "atoms", spec);
    return synthetic_md(params, rng);
  }
  throw precondition_error("unknown workload kind: " + kind);
}

TaskGraph read_task_graph(std::istream& is, const std::string& label) {
  std::string line, keyword;
  int tasks = -1;
  TaskGraph::Builder builder(label);
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    if (tasks < 0) {
      ls >> keyword >> tasks;
      TOPOMAP_REQUIRE(ls && keyword == "tasks" && tasks > 0,
                      "task file must start with 'tasks N'");
      builder.add_vertices(tasks);
      continue;
    }
    int a = 0, b = 0;
    double bytes = 0.0;
    ls >> a >> b >> bytes;
    TOPOMAP_REQUIRE(static_cast<bool>(ls), "bad edge line: " + line);
    builder.add_edge(a, b, bytes);
  }
  TOPOMAP_REQUIRE(tasks > 0, "task file missing 'tasks N' header");
  return std::move(builder).build();
}

TaskGraph read_task_graph_file(const std::string& path) {
  std::ifstream in(path);
  TOPOMAP_REQUIRE(static_cast<bool>(in), "cannot open task file: " + path);
  return read_task_graph(in, "file[" + path + "]");
}

void write_task_graph(std::ostream& os, const TaskGraph& g) {
  os << "tasks " << g.num_vertices() << '\n';
  os << std::setprecision(17);
  for (const UndirectedEdge& e : g.edges())
    os << e.a << ' ' << e.b << ' ' << e.bytes << '\n';
}

}  // namespace topomap::graph
