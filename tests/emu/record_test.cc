#include "emu/record.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace mn {
namespace {

RecordedExchange exchange(const std::string& uri, std::int64_t resp_bytes,
                          std::vector<HttpHeader> req_headers = {}) {
  RecordedExchange e;
  e.request.method = "GET";
  e.request.uri = uri;
  e.request.headers = std::move(req_headers);
  e.response.status = 200;
  e.response.body_bytes = resp_bytes;
  return e;
}

TEST(RecordStore, ExactUriMatch) {
  RecordStore store;
  store.add(exchange("/a", 100));
  store.add(exchange("/b", 200));
  HttpRequest req;
  req.uri = "/b";
  const auto hit = store.match(req);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->response.body_bytes, 200);
}

TEST(RecordStore, MethodMustMatch) {
  RecordStore store;
  store.add(exchange("/a", 100));
  HttpRequest req;
  req.method = "POST";
  req.uri = "/a";
  EXPECT_FALSE(store.match(req).has_value());
}

TEST(RecordStore, LongestPrefixFallback) {
  // Mahimahi behavior for changed query strings.
  RecordStore store;
  store.add(exchange("/search?q=old&t=1", 100));
  store.add(exchange("/other", 200));
  HttpRequest req;
  req.uri = "/search?q=new&t=2";
  const auto hit = store.match(req);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->response.body_bytes, 100);
}

TEST(RecordStore, TimeSensitiveHeadersIgnoredInScoring) {
  RecordStore store;
  store.add(exchange("/page", 1,
                     {{"Accept", "text/html"}, {"If-Modified-Since", "recorded-time"}}));
  store.add(exchange("/page", 2, {{"Accept", "image/png"}}));
  HttpRequest req;
  req.uri = "/page";
  req.headers = {{"Accept", "text/html"}, {"If-Modified-Since", "replay-time"}};
  const auto hit = store.match(req);
  ASSERT_TRUE(hit.has_value());
  // The Accept header (not time-sensitive) should steer the match.
  EXPECT_EQ(hit->response.body_bytes, 1);
}

TEST(RecordStore, NoPlausibleMatchReturnsNullopt) {
  RecordStore store;
  store.add(exchange("/a", 100));
  HttpRequest req;
  req.uri = "zzz-no-common-prefix";
  EXPECT_FALSE(store.match(req).has_value());
}

TEST(RecordStore, SerializeRoundTrip) {
  RecordStore store;
  store.add(exchange("/x", 123, {{"Host", "h"}, {"Accept", "a/b"}}));
  store.add(exchange("/y", 456));
  const auto text = store.serialize();
  const auto back = RecordStore::deserialize(text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.exchanges()[0].request.uri, "/x");
  EXPECT_EQ(back.exchanges()[0].request.headers.size(), 2u);
  EXPECT_EQ(back.exchanges()[1].response.body_bytes, 456);
}

TEST(RecordStore, DeserializeRejectsGarbage) {
  EXPECT_THROW(RecordStore::deserialize("WHAT is this\n"), std::runtime_error);
  EXPECT_THROW(RecordStore::deserialize("EXCHANGE\nMETHOD GET\n"), std::runtime_error);
  EXPECT_THROW(RecordStore::deserialize("METHOD GET\n"), std::runtime_error);
  // A malformed or negative number is a runtime_error that quotes the line.
  for (const std::string line : {"REQBODY 12kb", "RESPBODY -7", "REQBODY abc", "STATUS 2OO"}) {
    try {
      (void)RecordStore::deserialize("EXCHANGE\n" + line + "\nEND\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos) << e.what();
    }
  }
  // CRLF line endings still parse.
  const RecordStore crlf = RecordStore::deserialize("EXCHANGE\r\nRESPBODY 5\r\nEND\r\n");
  ASSERT_EQ(crlf.size(), 1u);
  EXPECT_EQ(crlf.exchanges()[0].response.body_bytes, 5);
}

TEST(RecordStore, SaveLoadFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mn_record_test.txt").string();
  RecordStore store;
  store.add(exchange("/file", 999));
  store.save(path);
  const auto back = RecordStore::load(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.exchanges()[0].response.body_bytes, 999);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mn
