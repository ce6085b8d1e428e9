#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "common/bytes.h"
#include "common/status.h"
#include "common/strings.h"

namespace hyperq {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  EXPECT_EQ(BindError("x").code(), StatusCode::kBindError);
  EXPECT_EQ(TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ExecutionError("x").code(), StatusCode::kExecutionError);
  EXPECT_EQ(ProtocolError("x").code(), StatusCode::kProtocolError);
  EXPECT_EQ(AuthError("x").code(), StatusCode::kAuthError);
  EXPECT_EQ(NetworkError("x").code(), StatusCode::kNetworkError);
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  HQ_ASSIGN_OR_RETURN(int h, Half(x));
  HQ_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 3 is odd at the second step
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("from"), "FROM");
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("WHERE", "wher"));
}

TEST(StringsTest, StripAndAffix) {
  EXPECT_EQ(StripWhitespace("  x y \n"), "x y");
  EXPECT_TRUE(StartsWith("select 1", "select"));
  EXPECT_TRUE(EndsWith("trades.csv", ".csv"));
  EXPECT_FALSE(StartsWith("sel", "select"));
}

TEST(StringsTest, StrCatFormatsAsAStreamWould) {
  auto streamed = [](const auto&... args) {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  };
  const std::string s = "str";
  const std::string_view v = "view";
  const int64_t lo = INT64_MIN;
  const uint64_t hi = UINT64_MAX;
  const int8_t i8 = 65;
  const uint8_t u8 = 66;
  EXPECT_EQ(StrCat(s, v, 'c', true, false, -7, 0, lo, hi, size_t{42}),
            streamed(s, v, 'c', true, false, -7, 0, lo, hi, size_t{42}));
  EXPECT_EQ(StrCat(i8, u8, short{-3}, 1.0 / 3, 2.5f, 1e300),
            streamed(i8, u8, short{-3}, 1.0 / 3, 2.5f, 1e300));
  EXPECT_EQ(StrCat(), "");
}

TEST(StringsTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("row ", 12, " of ", 3.5), "row 12 of 3.5");
}

TEST(BytesTest, LittleEndianRoundTrip) {
  ByteWriter w;
  w.PutU32LE(0x01020304);
  w.PutI64LE(-5);
  w.PutF64LE(2.5);
  ByteReader r(w.data());
  EXPECT_EQ(r.GetU32LE().value(), 0x01020304u);
  EXPECT_EQ(r.GetI64LE().value(), -5);
  EXPECT_EQ(r.GetF64LE().value(), 2.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, BigEndianRoundTrip) {
  ByteWriter w;
  w.PutU16BE(0xBEEF);
  w.PutI32BE(-123456);
  ByteReader r(w.data());
  EXPECT_EQ(w.data()[0], 0xBE);  // network order on the wire
  EXPECT_EQ(r.GetU16BE().value(), 0xBEEF);
  EXPECT_EQ(r.GetI32BE().value(), -123456);
}

TEST(BytesTest, CStringAndPatch) {
  ByteWriter w;
  w.PutU32BE(0);  // placeholder length
  w.PutCString("hello");
  w.PatchU32BE(0, static_cast<uint32_t>(w.size()));
  ByteReader r(w.data());
  EXPECT_EQ(r.GetU32BE().value(), 10u);
  EXPECT_EQ(r.GetCString().value(), "hello");
}

TEST(BytesTest, TruncationIsError) {
  ByteWriter w;
  w.PutU8(1);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetU8().ok());
  Result<uint32_t> bad = r.GetU32LE();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kProtocolError);
}

TEST(BytesTest, UnterminatedCStringIsError) {
  std::vector<uint8_t> raw = {'a', 'b'};
  ByteReader r(raw.data(), raw.size());
  EXPECT_FALSE(r.GetCString().ok());
}

}  // namespace
}  // namespace hyperq
