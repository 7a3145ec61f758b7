#include "common/cli.h"

#include <gtest/gtest.h>

namespace mmwave::common {
namespace {

CliFlags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  CliFlags flags;
  EXPECT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  return flags;
}

TEST(Cli, EqualsSyntax) {
  auto f = parse({"--seeds=50", "--gap=0.01"});
  EXPECT_EQ(f.get_int("seeds", 0), 50);
  EXPECT_DOUBLE_EQ(f.get_double("gap", 0.0), 0.01);
}

TEST(Cli, SpaceSyntax) {
  auto f = parse({"--seeds", "25"});
  EXPECT_EQ(f.get_int("seeds", 0), 25);
}

TEST(Cli, BareBooleanFlag) {
  auto f = parse({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("quiet", false));
}

TEST(Cli, BoolSpellings) {
  EXPECT_TRUE(parse({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=false"}).get_bool("a", true));
}

TEST(Cli, DefaultsWhenMissing) {
  auto f = parse({});
  EXPECT_EQ(f.get_int("n", 42), 42);
  EXPECT_EQ(f.get_string("name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(f.get_double("x", 2.5), 2.5);
}

TEST(Cli, IntList) {
  auto f = parse({"--links=10,15,20,25,30"});
  auto v = f.get_int_list("links", {});
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[4], 30);
}

TEST(Cli, IntListDefault) {
  auto f = parse({});
  auto v = f.get_int_list("links", {1, 2});
  ASSERT_EQ(v.size(), 2u);
}

TEST(Cli, Positional) {
  auto f = parse({"run", "--n=3", "fast"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "fast");
}

TEST(Cli, HasDetectsPresence) {
  auto f = parse({"--x=1"});
  EXPECT_TRUE(f.has("x"));
  EXPECT_FALSE(f.has("y"));
}

TEST(Cli, NegativeNumbersAsValues) {
  auto f = parse({"--delta=-4"});
  EXPECT_EQ(f.get_int("delta", 0), -4);
}

TEST(Cli, UnreadListsFlagsNoGetterAskedFor) {
  auto f = parse({"--links=4", "--linkz=40", "--bogus", "--seed", "3"});
  EXPECT_EQ(f.unread(),
            (std::vector<std::string>{"bogus", "links", "linkz", "seed"}));
  EXPECT_EQ(f.get_int("links", 0), 4);
  EXPECT_TRUE(f.get_int_checked("seed", 1).ok());
  // Asking for an absent flag reads nothing that was given.
  EXPECT_FALSE(f.has("channels"));
  EXPECT_EQ(f.unread(), (std::vector<std::string>{"bogus", "linkz"}));
  EXPECT_TRUE(f.get_bool("bogus", false));
  EXPECT_EQ(f.get_string("linkz", ""), "40");
  EXPECT_TRUE(f.unread().empty());
}

}  // namespace
}  // namespace mmwave::common
