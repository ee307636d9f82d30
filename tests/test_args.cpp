#include "util/args.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace helcfl::util {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EmptyCommandLine) {
  const ArgParser args = parse({});
  EXPECT_FALSE(args.has("anything"));
  EXPECT_TRUE(args.positional().empty());
}

TEST(Args, KeyValueOption) {
  const ArgParser args = parse({"--scheme=helcfl"});
  EXPECT_TRUE(args.has("scheme"));
  EXPECT_EQ(args.get("scheme").value(), "helcfl");
}

TEST(Args, BareFlag) {
  const ArgParser args = parse({"--quiet"});
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_FALSE(args.get("quiet").has_value());
  EXPECT_TRUE(args.get_bool_or("quiet", false));
}

TEST(Args, Positional) {
  const ArgParser args = parse({"input.csv", "--flag", "output.csv"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"input.csv", "output.csv"}));
}

TEST(Args, GetOrFallback) {
  const ArgParser args = parse({"--a=x"});
  EXPECT_EQ(args.get_or("a", "d"), "x");
  EXPECT_EQ(args.get_or("b", "d"), "d");
}

TEST(Args, DoubleParsing) {
  const ArgParser args = parse({"--lr=0.05", "--bad=abc"});
  EXPECT_DOUBLE_EQ(args.get_double_or("lr", 1.0), 0.05);
  EXPECT_DOUBLE_EQ(args.get_double_or("missing", 2.5), 2.5);
  EXPECT_THROW(args.get_double_or("bad", 0.0), std::invalid_argument);
}

TEST(Args, DoubleRejectsTrailingGarbage) {
  const ArgParser args = parse({"--x=1.5abc"});
  EXPECT_THROW(args.get_double_or("x", 0.0), std::invalid_argument);
}

TEST(Args, IntParsing) {
  const ArgParser args = parse({"--rounds=300", "--neg=-5", "--bad=12.5"});
  EXPECT_EQ(args.get_int_or("rounds", 0), 300);
  EXPECT_EQ(args.get_int_or("neg", 0), -5);
  EXPECT_EQ(args.get_int_or("missing", 42), 42);
  EXPECT_THROW(args.get_int_or("bad", 0), std::invalid_argument);
}

TEST(Args, BoolParsing) {
  const ArgParser args =
      parse({"--a=true", "--b=false", "--c=1", "--d=no", "--e=maybe"});
  EXPECT_TRUE(args.get_bool_or("a", false));
  EXPECT_FALSE(args.get_bool_or("b", true));
  EXPECT_TRUE(args.get_bool_or("c", false));
  EXPECT_FALSE(args.get_bool_or("d", true));
  EXPECT_THROW(args.get_bool_or("e", false), std::invalid_argument);
  EXPECT_TRUE(args.get_bool_or("missing", true));
}

TEST(Args, ValueWithEqualsSign) {
  const ArgParser args = parse({"--expr=a=b"});
  EXPECT_EQ(args.get("expr").value(), "a=b");
}

TEST(Args, EmptyValue) {
  const ArgParser args = parse({"--csv="});
  EXPECT_TRUE(args.has("csv"));
  EXPECT_EQ(args.get("csv").value(), "");
}

// A repeated name is an error, whichever forms the two uses take.
void expect_repeat_rejected(std::initializer_list<const char*> args, const char* flag) {
  try {
    (void)parse(args);
    ADD_FAILURE() << flag << " repeated was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(flag), std::string::npos) << error.what();
  }
}

TEST(Args, RepeatedOptionThrows) {
  expect_repeat_rejected({"--eta=0.9", "--eta=0.5"}, "--eta");
}

TEST(Args, RepeatedFlagThrows) {
  expect_repeat_rejected({"--quiet", "--scheme=helcfl", "--quiet"}, "--quiet");
}

TEST(Args, FlagRepeatedWithValueThrows) {
  expect_repeat_rejected({"--trace", "--trace=1"}, "--trace");
}

TEST(Args, RepeatedPositionalIsKept) {
  const ArgParser args = parse({"a.csv", "a.csv"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"a.csv", "a.csv"}));
}

TEST(Args, UnusedDetectsTypos) {
  const ArgParser args = parse({"--scheme=helcfl", "--shceme=typo", "--verbose"});
  (void)args.get("scheme");
  const auto unused = args.unused();
  EXPECT_EQ(unused.size(), 2u);
}

TEST(Args, QueriedOptionsAreNotUnused) {
  const ArgParser args = parse({"--a=1", "--b"});
  (void)args.get_int_or("a", 0);
  (void)args.get_bool_or("b", false);
  EXPECT_TRUE(args.unused().empty());
}

}  // namespace
}  // namespace helcfl::util
