// Copyright (c) zdb authors. Licensed under the MIT license.
//
// The two byte encodings of a WriteBatch — the APPLY request payload
// (net/wire) and the replication log record (repl/record) — pinned to
// golden bytes, plus a hostile-byte sweep over both decoders: every
// truncation and every single-byte XOR with 0x01, 0x80 and 0xFF must
// either be rejected or decode to a batch that re-encodes to exactly
// the mutated bytes (no decoder accepts bytes it cannot reproduce).

#include <gtest/gtest.h>

#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "net/wire.h"
#include "repl/record.h"

namespace zdb {
namespace {

/// One insert carrying a preassigned oid, then one erase.
WriteBatch GoldenBatch() {
  WriteBatch b;
  b.InsertWithOid(Rect{0.125, 0.25, 0.5, 0.75}, 0x01020304u, 0xA1B2C3D4u);
  b.Erase(0x0000BEEFu);
  return b;
}

std::string GoldenApply() {
  return net::EncodeApplyRequest(GoldenBatch(), Durability::kPublished);
}

std::string GoldenLogRecord() {
  repl::LogRecord rec;
  rec.epoch = 0x1122334455667788ull;
  rec.batch = GoldenBatch();
  return repl::EncodeLogRecord(rec);
}

/// Decodes `bytes` as an APPLY payload; a payload the decoder accepts
/// must re-encode to `bytes` exactly.
void CheckApplyDecode(const std::string& bytes) {
  WriteBatch batch;
  Durability durability = Durability::kDurable;
  if (!net::DecodeApplyRequest(bytes, &batch, &durability)) return;
  EXPECT_EQ(ToHex(net::EncodeApplyRequest(batch, durability)), ToHex(bytes));
}

void CheckLogDecode(const std::string& bytes) {
  repl::LogRecord rec;
  if (!repl::DecodeLogRecord(bytes, &rec)) return;
  EXPECT_EQ(ToHex(repl::EncodeLogRecord(rec)), ToHex(bytes));
}

/// Every truncation, and every byte XORed with 0x01, 0x80 and 0xFF.
template <typename Check>
void SweepHostileBytes(const std::string& golden, Check check) {
  for (size_t len = 0; len < golden.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len));
    check(golden.substr(0, len));
  }
  for (size_t at = 0; at < golden.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      SCOPED_TRACE("byte " + std::to_string(at) + " ^ " +
                   std::to_string(mask));
      std::string mutated = golden;
      mutated[at] = static_cast<char>(mutated[at] ^ mask);
      check(mutated);
    }
  }
}

TEST(BatchCodec, ApplyRequestGoldenBytes) {
  // u32 count | insert: kind 0, 4 doubles, u32 payload (no oid) |
  // erase: kind 1, u32 oid | durability byte (kPublished).
  EXPECT_EQ(ToHex(GoldenApply()),
            "02000000"
            "00"
            "000000000000c03f"
            "000000000000d03f"
            "000000000000e03f"
            "000000000000e83f"
            "d4c3b2a1"
            "01"
            "efbe0000"
            "01");
}

TEST(BatchCodec, LogRecordGoldenBytes) {
  // u64 epoch | u32 count | insert: kind 0, 4 doubles, u32 payload,
  // u32 oid | erase: kind 1, u32 oid | u32 FNV-1a checksum.
  EXPECT_EQ(ToHex(GoldenLogRecord()),
            "8877665544332211"
            "02000000"
            "00"
            "000000000000c03f"
            "000000000000d03f"
            "000000000000e03f"
            "000000000000e83f"
            "d4c3b2a1"
            "04030201"
            "01"
            "efbe0000"
            "f5ad928c");
}

TEST(BatchCodec, GoldenBytesRoundTrip) {
  WriteBatch batch;
  Durability durability = Durability::kDurable;
  ASSERT_TRUE(net::DecodeApplyRequest(GoldenApply(), &batch, &durability));
  EXPECT_EQ(durability, Durability::kPublished);
  ASSERT_EQ(batch.ops.size(), 2u);
  // APPLY carries no oids: the insert decodes as DB-assigned.
  EXPECT_EQ(batch.ops[0].preassigned, kNoPreassignedOid);
  EXPECT_EQ(batch.ops[0].payload, 0xA1B2C3D4u);
  EXPECT_EQ(batch.ops[1].oid, 0x0000BEEFu);

  repl::LogRecord rec;
  ASSERT_TRUE(repl::DecodeLogRecord(GoldenLogRecord(), &rec));
  EXPECT_EQ(rec.epoch, 0x1122334455667788ull);
  ASSERT_EQ(rec.batch.ops.size(), 2u);
  EXPECT_EQ(rec.batch.ops[0].preassigned, 0x01020304u);
  EXPECT_EQ(rec.batch.ops[0].mbr.yhi, 0.75);
  EXPECT_EQ(rec.batch.ops[1].kind, WriteOp::Kind::kErase);
  EXPECT_EQ(rec.batch.ops[1].oid, 0x0000BEEFu);
}

TEST(BatchCodec, ApplyRequestHostileBytes) {
  SweepHostileBytes(GoldenApply(), CheckApplyDecode);
}

TEST(BatchCodec, LogRecordHostileBytes) {
  SweepHostileBytes(GoldenLogRecord(), CheckLogDecode);
}

}  // namespace
}  // namespace zdb
