#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ppscan {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, SpaceSeparatedValue) {
  const auto flags = make({"--eps", "0.4"});
  EXPECT_EQ(flags.get_string("eps", ""), "0.4");
}

TEST(Flags, EqualsSeparatedValue) {
  const auto flags = make({"--mu=7"});
  EXPECT_EQ(flags.get_int("mu", 0), 7);
}

TEST(Flags, BooleanFlagWithoutValue) {
  const auto flags = make({"--verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(Flags, BooleanFlagFollowedByAnotherFlag) {
  const auto flags = make({"--verbose", "--eps", "0.2"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_string("eps", ""), "0.2");
}

TEST(Flags, FallbacksWhenMissing) {
  const auto flags = make({});
  EXPECT_EQ(flags.get_string("x", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 1.5), 1.5);
  EXPECT_TRUE(flags.get_bool("x", true));
}

TEST(Flags, Positionals) {
  const auto flags = make({"input.txt", "--eps", "0.3", "more"});
  ASSERT_EQ(flags.positionals().size(), 2u);
  EXPECT_EQ(flags.positionals()[0], "input.txt");
  EXPECT_EQ(flags.positionals()[1], "more");
}

TEST(Flags, HasDetectsPresence) {
  const auto flags = make({"--eps=0.1"});
  EXPECT_TRUE(flags.has("eps"));
  EXPECT_FALSE(flags.has("mu"));
}

TEST(Flags, DoubleParsing) {
  const auto flags = make({"--scale", "2.5"});
  EXPECT_DOUBLE_EQ(flags.get_double("scale", 0.0), 2.5);
}

TEST(Flags, BoolAcceptsSeveralSpellings) {
  EXPECT_TRUE(make({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=true"}).get_bool("a", false));
  EXPECT_FALSE(make({"--a=0"}).get_bool("a", true));
}

TEST(Flags, FirstUnknownNamesAFlagOutsideTheAllowlist) {
  const std::vector<std::string> known = {"eps", "mu"};
  EXPECT_EQ(make({"g.txt", "--eps", "0.5", "--mu=3"}).first_unknown(known),
            "");
  EXPECT_EQ(make({}).first_unknown(known), "");
  EXPECT_EQ(make({"--eps", "0.5", "--numa", "interleave"}).first_unknown(known),
            "numa");
  EXPECT_EQ(make({"--verbose"}).first_unknown(known), "verbose");
  EXPECT_EQ(make({"--mu", "3"}).first_unknown({}), "mu");
}

}  // namespace
}  // namespace ppscan
