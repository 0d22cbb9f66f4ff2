// Copyright (c) zdb authors. Licensed under the MIT license.

#include "shard/manifest.h"

#include <cstring>
#include <memory>

#include "shard/routing.h"
#include "storage/file.h"

namespace zdb {
namespace shard {

namespace {

constexpr char kMagic[4] = {'z', 's', 'h', 'm'};
constexpr uint32_t kVersion = 1;
constexpr size_t kManifestSize = 16;

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// True if `file` starts with the manifest magic.
bool IsManifest(const File* file) {
  if (file->Size() < kManifestSize) return false;
  char magic[4];
  if (!file->Read(0, sizeof(magic), magic).ok()) return false;
  return std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

/// Decodes and validates the manifest (magic, version, count bounds)
/// and returns its shard count.
Result<uint32_t> ReadManifest(const File* file) {
  char buf[kManifestSize];
  ZDB_RETURN_IF_ERROR(file->Read(0, sizeof(buf), buf));
  if (std::memcmp(buf, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad shard manifest magic");
  }
  const uint32_t version = LoadU32(buf + 4);
  if (version != kVersion) {
    return Status::Corruption("unsupported shard manifest version " +
                              std::to_string(version));
  }
  const uint32_t shards = LoadU32(buf + 8);
  if (shards < 2 || shards > kMaxShards) {
    return Status::Corruption("shard manifest count out of range: " +
                              std::to_string(shards));
  }
  return shards;
}

/// Writes the manifest and syncs the file.
Status WriteManifest(File* file, uint32_t shards) {
  char buf[kManifestSize] = {};
  std::memcpy(buf, kMagic, sizeof(kMagic));
  const uint32_t version = kVersion;
  std::memcpy(buf + 4, &version, sizeof(version));
  std::memcpy(buf + 8, &shards, sizeof(shards));
  ZDB_RETURN_IF_ERROR(file->Write(0, buf, sizeof(buf)));
  return file->Sync();
}

}  // namespace

Result<std::vector<std::string>> ShardPaths(const std::string& path,
                                            uint32_t requested) {
  std::unique_ptr<File> file;
  ZDB_ASSIGN_OR_RETURN(file, PosixFile::Open(path));
  uint32_t n = requested;
  if (file->Size() != 0) {
    n = 1;
    if (IsManifest(file.get())) ZDB_ASSIGN_OR_RETURN(n, ReadManifest(file.get()));
  } else if (n > 1) {
    ZDB_RETURN_IF_ERROR(WriteManifest(file.get(), n));
  }
  if (n == 1) return std::vector<std::string>{path};
  std::vector<std::string> paths;
  for (uint32_t s = 0; s < n; ++s) paths.push_back(ShardFilePath(path, s));
  return paths;
}

std::string ShardFilePath(const std::string& path, uint32_t shard) {
  return path + ".shard" + std::to_string(shard);
}

}  // namespace shard
}  // namespace zdb
