#include <gtest/gtest.h>

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

}  // namespace
}  // namespace ccnoc::sim
