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
  EXPECT_EQ(f.get_int_checked("seeds", 0).value(), 50);
  EXPECT_DOUBLE_EQ(f.get_double_checked("gap", 0.0).value(), 0.01);
}

TEST(Cli, SpaceSyntax) {
  auto f = parse({"--seeds", "25"});
  EXPECT_EQ(f.get_int_checked("seeds", 0).value(), 25);
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
  EXPECT_EQ(f.get_int_checked("n", 42).value(), 42);
  EXPECT_EQ(f.get_string("name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(f.get_double_checked("x", 2.5).value(), 2.5);
}

TEST(Cli, IntList) {
  auto f = parse({"--links=10,15,20,25,30"});
  auto v = f.get_int_list_checked("links", {}).value();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[4], 30);
}

TEST(Cli, IntListDefault) {
  auto f = parse({});
  auto v = f.get_int_list_checked("links", {1, 2}).value();
  ASSERT_EQ(v.size(), 2u);
}

TEST(Cli, IntListCheckedRejectsEveryNonIntegerToken) {
  auto v = parse({"--links=1,-2,30"}).get_int_list_checked("links", {});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), (std::vector<std::int64_t>{1, -2, 30}));
  EXPECT_EQ(parse({}).get_int_list_checked("links", {7}).value(),
            (std::vector<std::int64_t>{7}));
  for (const char* bad : {"--links=x", "--links=1,y", "--links=1,,2",
                          "--links=1,", "--links=", "--links=2x",
                          "--links=99999999999999999999", "--links"}) {
    const auto r = parse({bad}).get_int_list_checked("links", {});
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidInput) << bad;
    EXPECT_EQ(r.status().message().rfind("--links: ", 0), 0u) << bad;
  }
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
  auto f = parse({"--delta=-4", "--scale", "-0.5"});
  EXPECT_EQ(f.get_int_checked("delta", 0).value(), -4);
  EXPECT_DOUBLE_EQ(f.get_double_checked("scale", 0.0).value(), -0.5);
}

TEST(Cli, UnreadListsFlagsNoGetterAskedFor) {
  auto f = parse({"--links=4", "--linkz=40", "--bogus", "--seed", "3"});
  EXPECT_EQ(f.unread(),
            (std::vector<std::string>{"bogus", "links", "linkz", "seed"}));
  EXPECT_EQ(f.get_int_checked("links", 0).value(), 4);
  EXPECT_TRUE(f.get_int_checked("seed", 1).ok());
  // Asking for an absent flag reads nothing that was given.
  EXPECT_FALSE(f.has("channels"));
  EXPECT_EQ(f.unread(), (std::vector<std::string>{"bogus", "linkz"}));
  EXPECT_TRUE(f.get_bool("bogus", false));
  EXPECT_EQ(f.get_string("linkz", ""), "40");
  EXPECT_TRUE(f.unread().empty());
}

TEST(Cli, CheckUnusedNamesUnreadFlagsAndStrayArguments) {
  auto f = parse({"solve", "--links=4", "--linkz=40", "stray", "--bogus"});
  EXPECT_EQ(f.get_int_checked("links", 0).value(), 4);
  Status s = f.check_unused(1);
  EXPECT_EQ(s.code(), ErrorCode::kInvalidInput);
  EXPECT_EQ(s.message(), "unknown flag --bogus, --linkz");
  EXPECT_EQ(f.get_string("linkz", ""), "40");
  EXPECT_TRUE(f.get_bool("bogus", false));
  s = f.check_unused(1);
  EXPECT_EQ(s.code(), ErrorCode::kInvalidInput);
  EXPECT_EQ(s.message(), "unexpected argument 'stray'");
  EXPECT_TRUE(f.check_unused(2).ok());
  EXPECT_EQ(f.check_unused().message(),
            "unexpected argument 'solve', 'stray'");
  EXPECT_TRUE(parse({}).check_unused().ok());
}

}  // namespace
}  // namespace mmwave::common
