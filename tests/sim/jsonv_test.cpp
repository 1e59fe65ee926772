#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/jsonv.hpp"

namespace ccnoc::sim {
namespace {

TEST(JsonEscape, EscapesEveryByteClass) {
  // Quote, backslash, \n and \t take their short escapes; other control
  // bytes become \u00XX; a byte >= 0x80 (here the first of a UTF-8 pair)
  // passes through untouched.
  const std::string in = std::string("a\"b\\c\nd\te") + '\x01' + '\x1f' +
                         "\xc3\xa9" + "z";
  EXPECT_EQ(json_escape(in),
            std::string("a\\\"b\\\\c\\nd\\te\\u0001\\u001f") + "\xc3\xa9" + "z");
}

// The byte-at-a-time loop the emitters used before JsonOut, kept here as the
// reference the run-copying escaper must reproduce.
std::string reference_escape_loop(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonEscape, MatchesReferenceLoopOnEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, char(b));
    EXPECT_EQ(json_escape(one), reference_escape_loop(one)) << "byte " << b;
    // The same byte between plain runs exercises the run copying.
    const std::string framed = "ab" + one + "cd";
    EXPECT_EQ(json_escape(framed), reference_escape_loop(framed)) << "byte " << b;
    all += one;
  }
  EXPECT_EQ(json_escape(all), reference_escape_loop(all));
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonOut, IntegersPrintInDecimal) {
  JsonOut o;
  o.num(std::uint64_t{0}).raw(',').num(std::uint64_t{1} << 32).raw(',');
  o.num(~std::uint64_t{0}).raw(',').num(std::int64_t{-42}).raw(',');
  o.num(std::uint16_t{65535}).raw(',').num(unsigned{7});
  EXPECT_EQ(o.text(), "0,4294967296,18446744073709551615,-42,65535,7");
}

// The reference: the "%.6g" (reports) and "%.9g" (bench records) printf
// formats the emitters used before JsonOut.
std::string printf_g(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

TEST(JsonOut, DoublesMatchPrintfG) {
  const double sweep[] = {0.0,  -0.0, 1e-7, 123456789.0, 1e21,          0.1,
                          -2.5, 1.0 / 3, 16.0, 1234567.0, 9.87654321e-5, 3e300};
  for (double v : sweep) {
    JsonOut six;
    six.num(v);
    EXPECT_EQ(six.text(), printf_g(v, 6)) << v;
    JsonOut nine;
    nine.num(v, 9);
    EXPECT_EQ(nine.text(), printf_g(v, 9)) << v;
  }
  JsonOut o;
  o.num(-0.0).raw(' ').num(123456789.0).raw(' ').num(123456789.0, 9);
  EXPECT_EQ(o.text(), "-0 1.23457e+08 123456789");
}

TEST(JsonOut, StringsRawAndBooleans) {
  JsonOut o;
  o.raw('{').str("k\"ey").raw(':').boolean(true).raw(',');
  o.str("").raw(':').boolean(false).raw('}');
  EXPECT_EQ(o.text(), "{\"k\\\"ey\":true,\"\":false}");
  const std::string taken = o.take();
  EXPECT_EQ(taken, "{\"k\\\"ey\":true,\"\":false}");
}

TEST(WriteFile, WritesContentAndReportsFailure) {
  const std::string path = ::testing::TempDir() + "ccnoc_write_file_test.json";
  ASSERT_TRUE(write_file(path, "{\"a\":1}\n"));
  std::ifstream f(path, std::ios::binary);
  std::stringstream got;
  got << f.rdbuf();
  EXPECT_EQ(got.str(), "{\"a\":1}\n");
  std::remove(path.c_str());

  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(write_file(path + ".missing/dir/x.json", "{}"));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
  EXPECT_NE(err.find("for writing"), std::string::npos) << err;
}

}  // namespace
}  // namespace ccnoc::sim
