// Task-graph factory: spec parsing, file round-trips, error diagnosis.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "support/error.hpp"

namespace topomap::graph {
namespace {

TEST(GraphFactory, ParsesEveryKind) {
  Rng rng(1);
  EXPECT_EQ(make_task_graph("stencil2d:6x4", rng).num_vertices(), 24);
  EXPECT_EQ(make_task_graph("stencil3d:2x3x4", rng).num_vertices(), 24);
  EXPECT_EQ(make_task_graph("ring:9", rng).num_vertices(), 9);
  EXPECT_EQ(make_task_graph("complete:5", rng).num_edges(), 10);
  EXPECT_EQ(make_task_graph("transpose:4", rng).num_vertices(), 16);
  EXPECT_EQ(make_task_graph("butterfly:4", rng).num_vertices(), 16);
  EXPECT_EQ(make_task_graph("er:30:0.2", rng).num_vertices(), 30);
  EXPECT_EQ(make_task_graph("rgg:40:0.3", rng).num_vertices(), 40);
  EXPECT_GT(make_task_graph("md:3x3x3", rng).num_vertices(), 27);
}

TEST(GraphFactory, BytesParameterHonored) {
  Rng rng(1);
  const TaskGraph g = make_task_graph("stencil2d:4x4:512", rng);
  for (const auto& e : g.edges()) EXPECT_DOUBLE_EQ(e.bytes, 512.0);
  const TaskGraph d = make_task_graph("ring:5", rng);
  for (const auto& e : d.edges()) EXPECT_DOUBLE_EQ(e.bytes, 1024.0);
}

TEST(GraphFactory, MdAtomsParameter) {
  Rng rng(2);
  const TaskGraph g = make_task_graph("md:3x3x3:50", rng);
  // Cell weights ~ atoms; with 50 atoms/cell, cell loads are in
  // [35, 65] (spread 0.3).
  for (int c = 0; c < 27; ++c) {
    EXPECT_GE(g.vertex_weight(c), 35.0 - 1e-9);
    EXPECT_LE(g.vertex_weight(c), 65.0 + 1e-9);
  }
}

TEST(GraphFactory, RejectsMalformedSpecs) {
  Rng rng(1);
  EXPECT_THROW(make_task_graph("stencil2d", rng), precondition_error);
  EXPECT_THROW(make_task_graph("stencil2d:4", rng), precondition_error);
  EXPECT_THROW(make_task_graph("nope:4x4", rng), precondition_error);
  EXPECT_THROW(make_task_graph("er:30", rng), precondition_error);
  EXPECT_THROW(make_task_graph("stencil2d:axb", rng), precondition_error);
  EXPECT_THROW(make_task_graph("file:/does/not/exist", rng),
               precondition_error);
}

// A stray or trailing separator is an empty field the field's parser
// rejects, and a field past the kind's last is rejected too, naming the
// whole spec; neither vanishes into a smaller spec.
TEST(GraphFactory, RejectsEmptyAndExtraFieldsNamingTheSpec) {
  Rng rng(1);
  for (const std::string spec :
       {"stencil2d:4x4x", "stencil2d:4x4:", "stencil2d:4xx4", "stencil2d:x4x4",
        "stencil3d:2x2x2x", "ring:5:", "er:30:0.2:", "md:3x3x3:",
        "stencil2d:4x4:512:9", "er:30:0.2:5:1", "complete:4:8:"}) {
    try {
      (void)make_task_graph(spec, rng);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(make_task_graph("stencil2d:4x4:512", rng).num_vertices(), 16);
}

// A file spec's path is everything after "file:", colons included, so a
// trailing field is part of the path, never dropped.
TEST(GraphFactory, FileSpecPathKeepsItsColons) {
  Rng rng(5);
  const std::string path =
      (std::filesystem::temp_directory_path() / "topomap_file_spec:a.graph")
          .string();
  {
    std::ofstream out(path);
    write_task_graph(out, ring(6, 8.0));
  }
  EXPECT_EQ(make_task_graph("file:" + path, rng).num_vertices(), 6);
  EXPECT_THROW(make_task_graph("file:" + path + ":junk", rng),
               precondition_error);
  std::filesystem::remove(path);
}

TEST(GraphFactory, FileRoundTrip) {
  Rng rng(5);
  const TaskGraph g = random_graph(20, 0.3, 1.0, 64.0, rng);
  std::stringstream ss;
  write_task_graph(ss, g);
  const TaskGraph back = read_task_graph(ss);
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (const auto& e : g.edges())
    EXPECT_NEAR(back.edge_bytes(e.a, e.b), e.bytes, 1e-9);
}

TEST(GraphFactory, ReadRejectsBadFiles) {
  std::stringstream missing_header("0 1 5\n");
  EXPECT_THROW(read_task_graph(missing_header), precondition_error);
  std::stringstream bad_edge("tasks 2\n0 oops 5\n");
  EXPECT_THROW(read_task_graph(bad_edge), precondition_error);
  std::stringstream comments_ok("# hello\ntasks 2\n# edge\n0 1 5\n");
  EXPECT_EQ(read_task_graph(comments_ok).num_edges(), 1);
}

TEST(GraphFactory, RandomFamiliesUseTheRng) {
  Rng a(1), b(1), c(2);
  const TaskGraph ga = make_task_graph("er:30:0.2", a);
  const TaskGraph gb = make_task_graph("er:30:0.2", b);
  const TaskGraph gc = make_task_graph("er:30:0.2", c);
  EXPECT_EQ(ga.num_edges(), gb.num_edges());
  bool differs = ga.num_edges() != gc.num_edges();
  if (!differs && ga.num_edges() > 0)
    differs = !(ga.edges()[0].a == gc.edges()[0].a &&
                ga.edges()[0].b == gc.edges()[0].b);
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace topomap::graph
