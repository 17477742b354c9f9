// Unit tests for the table renderer and the flag parser.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "util/flags.h"
#include "util/table.h"

namespace tapejuke {
namespace {

TEST(Table, TextAlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({std::string("alpha"), int64_t{1}});
  t.AddRow({std::string("b"), int64_t{22}});
  std::ostringstream out;
  t.PrintText(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, DoublePrecision) {
  Table t({"x"});
  t.set_precision(2);
  t.AddRow({3.14159});
  std::ostringstream out;
  t.PrintCsv(out);
  EXPECT_EQ(out.str(), "x\n3.14\n");
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a,b", "c"});
  t.AddRow({std::string("x\"y"), std::string("plain")});
  std::ostringstream out;
  t.PrintCsv(out);
  EXPECT_EQ(out.str(), "\"a,b\",c\n\"x\"\"y\",plain\n");
}

TEST(Table, NumRows) {
  Table t({"a"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.AddRow({int64_t{1}});
  EXPECT_EQ(t.num_rows(), 1u);
}

class FlagsTest : public ::testing::Test {
 protected:
  Status Parse(std::vector<std::string> args) {
    argv_storage_ = std::move(args);
    argv_storage_.insert(argv_storage_.begin(), "prog");
    std::vector<char*> argv;
    for (auto& arg : argv_storage_) argv.push_back(arg.data());
    return flags_.Parse(static_cast<int>(argv.size()), argv.data());
  }

  FlagSet flags_{"test program"};
  std::vector<std::string> argv_storage_;
};

TEST_F(FlagsTest, ParsesAllTypes) {
  int64_t n = 1;
  double x = 0.5;
  std::string s = "default";
  bool b = false;
  flags_.AddInt64("n", &n, "an int");
  flags_.AddDouble("x", &x, "a double");
  flags_.AddString("s", &s, "a string");
  flags_.AddBool("b", &b, "a bool");
  ASSERT_TRUE(Parse({"--n=42", "--x", "2.5", "--s=hello", "--b"}).ok());
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(b);
}

TEST_F(FlagsTest, NoPrefixDisablesBool) {
  bool b = true;
  flags_.AddBool("verbose", &b, "x");
  ASSERT_TRUE(Parse({"--no-verbose"}).ok());
  EXPECT_FALSE(b);
}

TEST_F(FlagsTest, UnknownFlagFails) {
  EXPECT_FALSE(Parse({"--bogus=1"}).ok());
}

TEST_F(FlagsTest, BadIntFails) {
  int64_t n = 0;
  flags_.AddInt64("n", &n, "x");
  EXPECT_FALSE(Parse({"--n=abc"}).ok());
  // strtoll clamps out-of-range values to INT64_MAX/MIN.
  EXPECT_FALSE(Parse({"--n=99999999999999999999"}).ok());
  EXPECT_FALSE(Parse({"--n=-99999999999999999999"}).ok());
  EXPECT_EQ(n, 0);
  ASSERT_TRUE(Parse({"--n=9223372036854775807"}).ok());
  EXPECT_EQ(n, INT64_MAX);
}

// strtod accepts "nan" and "inf" (and overflows to inf); a double flag
// must refuse them, leaving the target as it was.
TEST_F(FlagsTest, NonFiniteDoubleFails) {
  double x = 1.5;
  flags_.AddDouble("x", &x, "x");
  for (const char* arg : {"--x=nan", "--x=NaN", "--x=inf", "--x=-infinity",
                          "--x=1e400"}) {
    EXPECT_EQ(Parse({arg}).code(), StatusCode::kInvalidArgument) << arg;
  }
  EXPECT_EQ(x, 1.5);
}

TEST_F(FlagsTest, PositionalCollected) {
  ASSERT_TRUE(Parse({"file1", "file2"}).ok());
  EXPECT_EQ(flags_.positional().size(), 2u);
  EXPECT_EQ(flags_.positional()[0], "file1");
}

TEST_F(FlagsTest, MissingValueFails) {
  int64_t n = 0;
  flags_.AddInt64("n", &n, "x");
  EXPECT_FALSE(Parse({"--n"}).ok());
}

TEST_F(FlagsTest, HelpReturnsNotFound) {
  testing::internal::CaptureStdout();
  const Status s = Parse({"--help"});
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tapejuke
