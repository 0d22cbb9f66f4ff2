// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Option validation: every knob bundle (DBOptions, ServerOptions) is
// checked by a Validate() that returns a typed Status — misconfiguration
// is a value the caller handles, never an abort. These tests pin the
// contract: each rejection is death-free, carries kInvalidArgument, and
// the accept cases actually pass.

#include <string>

#include "gtest/gtest.h"

#include "server/server.h"
#include "zdb/db.h"

namespace zdb {
namespace {

// ------------------------------------------------------------- DBOptions

TEST(OptionsValidate, DbDefaultsAreValid) {
  EXPECT_TRUE(DBOptions{}.Validate().ok());
}

TEST(OptionsValidate, DbRejectsZeroCachePages) {
  DBOptions opt;
  opt.cache_pages = 0;
  const Status s = opt.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(OptionsValidate, DbRejectsShardCountsOutsideTheRange) {
  DBOptions opt;
  opt.shards = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.shards = 65;  // the routing prefix caps the fan-out at 64
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.shards = 64;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(OptionsValidate, DbOpenSurfacesTheTypedStatus) {
  DBOptions opt;
  opt.cache_pages = 0;
  auto r = DB::Open("", opt);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

// --------------------------------------------------------- ServerOptions

TEST(OptionsValidate, ServerDefaultsAreValid) {
  EXPECT_TRUE(net::ServerOptions{}.Validate().ok());
}

TEST(OptionsValidate, ServerRejectsNoListener) {
  net::ServerOptions opt;
  opt.tcp = false;
  opt.unix_path.clear();
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.unix_path = "/tmp/zdb.sock";
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(OptionsValidate, ServerRejectsZeroWorkersOrNetThreads) {
  net::ServerOptions opt;
  opt.workers = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.workers = 1;
  opt.net_threads = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(OptionsValidate, FollowerRequiresALeaderEndpoint) {
  net::ServerOptions opt;
  opt.role = net::ServerRole::kFollower;
  const Status missing = opt.Validate();
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.IsInvalidArgument()) << missing.ToString();

  opt.leader_endpoint = "not-a-uri";
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.leader_endpoint = "tcp://localhost:missing-port";
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());

  opt.leader_endpoint = "tcp://127.0.0.1:4490";
  EXPECT_TRUE(opt.Validate().ok());
  opt.leader_endpoint = "unix:///tmp/zdb-leader.sock";
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(OptionsValidate, LeaderEndpointOnlyMeaningfulForFollowers) {
  net::ServerOptions opt;
  opt.leader_endpoint = "tcp://127.0.0.1:4490";
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());  // standalone
  opt.role = net::ServerRole::kLeader;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.role = net::ServerRole::kFollower;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(OptionsValidate, ServerStartSurfacesTheTypedStatus) {
  // Start() funnels through Validate(): a bad config fails the same
  // typed way without binding a socket or spawning a thread.
  net::ServerOptions opt;
  opt.workers = 0;
  auto db = DB::Open("").value();
  net::Server server(db.get(), opt);
  const Status s = server.Start();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

}  // namespace
}  // namespace zdb
