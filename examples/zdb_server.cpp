// Copyright (c) zdb authors. Licensed under the MIT license.
//
// zdb network daemon: serves one spatial index over the binary wire
// protocol on TCP and/or a unix-domain socket.
//
//   $ ./build/examples/zdb_server --port 4490
//   zdb_server: listening on 127.0.0.1:4490 (workers 4, queue 64)
//
// Options:
//   --host H          bind address            (default 127.0.0.1)
//   --port P          TCP port; 0 = ephemeral (default 4490)
//   --unix PATH       also listen on a unix-domain socket
//   --net-threads N   epoll event-loop threads (default 2)
//   --workers N       request worker threads  (default 4)
//   --queue N         admission queue bound   (default 64)
//   --backlog N       listen(2) backlog       (default 128)
//   --idle-ms N       idle connection timeout (default 30000; 0 = never)
//   --k N             size-bound redundancy k (default 4)
//   --pool-pages N    buffer pool pages (per shard, default 1024)
//   --db PATH         serve a durable database file (default: in-memory)
//   --shards N        z-prefix shard engines  (default 1; reopen keeps
//                     the stored layout)
//   --preload N       seed N random rectangles before serving
//   --seed S          preload RNG seed        (default 42)
//   --role R          standalone | leader | follower (default standalone)
//   --leader URI      leader endpoint, follower role only
//                     (tcp://host:port or unix://path)
//   --repl-retain N   leader log ring size, records (default 0 = all)
//   --repl-window N   per-follower unacked record cap (default 64)
//
// A leader ships every committed batch to subscribed followers; a
// follower replays the leader's log (reconnecting with backoff) and
// rejects direct writes with NOT_LEADER naming the leader's endpoint.
//
// The database runs the group-commit durability pipeline (an in-memory
// server uses a memory-backed journal), so APPLY requests choose between
// ack-after-fsync (kDurable, the default) and ack-on-publish
// (kPublished) per request.
//
// A client STATS request returns a JSON counter snapshot; a client
// SHUTDOWN request drains the server gracefully and exits.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

#include "server/server.h"
#include "zdb/db.h"

using namespace zdb;

int main(int argc, char** argv) {
  net::ServerOptions opt;
  opt.port = 4490;
  uint32_t k = 4;
  size_t pool_pages = 1024;
  uint32_t shards = 1;
  std::string db_path;
  size_t preload = 0;
  uint64_t seed = 42;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      opt.host = next();
    } else if (arg == "--port") {
      opt.port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--unix") {
      opt.unix_path = next();
    } else if (arg == "--net-threads") {
      opt.net_threads = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--workers") {
      opt.workers = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--queue") {
      opt.queue_capacity = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--backlog") {
      opt.listen_backlog =
          static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--idle-ms") {
      opt.idle_timeout_ms = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--k") {
      k = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--pool-pages") {
      pool_pages = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--shards") {
      shards = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--db") {
      db_path = next();
    } else if (arg == "--preload") {
      preload = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--role") {
      const std::string role = next();
      if (role == "standalone") {
        opt.role = net::ServerRole::kStandalone;
      } else if (role == "leader") {
        opt.role = net::ServerRole::kLeader;
      } else if (role == "follower") {
        opt.role = net::ServerRole::kFollower;
      } else {
        std::fprintf(stderr,
                     "--role wants standalone, leader or follower\n");
        return 2;
      }
    } else if (arg == "--leader") {
      opt.leader_endpoint = next();
    } else if (arg == "--repl-retain") {
      opt.repl_retain_records = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--repl-window") {
      opt.repl_window = std::strtoul(next(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  DBOptions options;
  options.index.data = DecomposeOptions::SizeBound(k);
  options.cache_pages = pool_pages;
  // Journal even the in-memory server so the group-commit pipeline runs
  // and clients get real per-request durability semantics.
  options.memory_journal = true;
  options.shards = shards;
  auto db_r = DB::Open(db_path, options);
  if (!db_r.ok()) {
    std::fprintf(stderr, "zdb_server: open failed: %s\n",
                 db_r.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_r).value();

  net::Server server(db.get(), opt);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "zdb_server: %s\n", s.ToString().c_str());
    return 1;
  }

  // Preload after Start(): on a leader the commit sink attaches during
  // Start, so seeding earlier would leave the seed batch out of the
  // shipped log and followers permanently missing it.
  if (preload > 0) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> pos(0.0, 0.94);
    std::uniform_real_distribution<double> ext(0.001, 0.05);
    WriteBatch batch;
    for (size_t i = 0; i < preload; ++i) {
      const double x = pos(rng), y = pos(rng);
      batch.Insert(Rect{x, y, x + ext(rng), y + ext(rng)});
    }
    auto r = db->Apply(batch);
    if (!r.ok()) {
      std::fprintf(stderr, "preload failed: %s\n",
                   r.status().ToString().c_str());
      server.Stop();
      return 1;
    }
    std::printf("zdb_server: preloaded %zu objects (seed %llu)\n", preload,
                static_cast<unsigned long long>(seed));
  }
  if (opt.role == net::ServerRole::kLeader) {
    std::printf("zdb_server: role leader\n");
  } else if (opt.role == net::ServerRole::kFollower) {
    std::printf("zdb_server: role follower, leader %s\n",
                opt.leader_endpoint.c_str());
  }
  if (opt.tcp) {
    std::printf(
        "zdb_server: listening on %s:%u (net threads %zu, workers %zu, "
        "queue %zu, shards %u)\n",
        opt.host.c_str(), server.port(), opt.net_threads, opt.workers,
        opt.queue_capacity, db->shards());
  }
  if (!opt.unix_path.empty()) {
    std::printf("zdb_server: listening on unix:%s\n", opt.unix_path.c_str());
  }
  std::fflush(stdout);

  server.WaitForShutdownRequest();
  std::printf("zdb_server: shutdown requested, draining...\n");
  server.Stop();
  std::printf("zdb_server: bye\n");
  return 0;
}
