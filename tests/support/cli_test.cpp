#include "src/support/cli.h"

#include <gtest/gtest.h>

#include <array>

namespace sdfmap {
namespace {

CliArgs make_args(std::vector<std::string> argv) {
  static std::vector<std::string> storage;
  storage = std::move(argv);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> ptrs;
  for (auto& s : storage) ptrs.push_back(s.data());
  return CliArgs(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(CliArgs, EqualsForm) {
  const CliArgs args = make_args({"--seed=42", "--name=bench"});
  EXPECT_EQ(args.get_int("seed", 0), 42);
  EXPECT_EQ(args.get("name", ""), "bench");
}

TEST(CliArgs, SpaceForm) {
  const CliArgs args = make_args({"--seed", "7"});
  EXPECT_EQ(args.get_int("seed", 0), 7);
}

TEST(CliArgs, BooleanFlag) {
  const CliArgs args = make_args({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", ""), "true");
  EXPECT_FALSE(args.has("quiet"));
}

TEST(CliArgs, BareFlagsAreTold) {
  const CliArgs args = make_args({"--dot", "--vcd=run.vcd", "--out", "x", "--gantt"});
  EXPECT_TRUE(args.bare("dot"));
  EXPECT_EQ(args.get("dot", ""), "true");
  EXPECT_FALSE(args.bare("vcd"));
  EXPECT_FALSE(args.bare("out"));
  EXPECT_TRUE(args.bare("gantt"));
  EXPECT_FALSE(args.bare("missing"));
  // The last occurrence wins, also for bareness.
  EXPECT_FALSE(make_args({"--dot", "--dot=x"}).bare("dot"));
  EXPECT_TRUE(make_args({"--dot=x", "--dot"}).bare("dot"));
}

TEST(CliArgs, Fallbacks) {
  const CliArgs args = make_args({});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(CliArgs, Positional) {
  const CliArgs args = make_args({"input.sdf", "--x=1", "out.dot"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.sdf");
  EXPECT_EQ(args.positional()[1], "out.dot");
}

TEST(CliArgs, DoubleParsing) {
  const CliArgs args = make_args({"--f=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double("f", 0), 0.25);
}

}  // namespace
}  // namespace sdfmap
