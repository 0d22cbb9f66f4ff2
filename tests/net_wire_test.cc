// Copyright (c) zdb authors. Licensed under the MIT license.
//
// Wire-protocol edge cases: strict header decoding, frame reassembly
// under adversarial chunking, bounds-checked payload codecs. Everything
// here must hold under ASan/UBSan — truncated or hostile bytes may never
// over-read.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"

namespace zdb {
namespace net {
namespace {

std::string PingFrame(uint64_t id) {
  return BuildFrame(Opcode::kPing, 0, id, {});
}

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}

TEST(WireHeader, RoundTrip) {
  FrameHeader h;
  h.payload_len = 123;
  h.opcode = static_cast<uint8_t>(Opcode::kWindow);
  h.flags = kFlagReply;
  h.request_id = 0xDEADBEEFCAFEF00Dull;
  char buf[kHeaderSize];
  EncodeFrameHeader(buf, h);

  FrameHeader out;
  EXPECT_EQ(DecodeFrameHeader(buf, &out), WireError::kOk);
  EXPECT_EQ(out.payload_len, 123u);
  EXPECT_EQ(out.opcode, static_cast<uint8_t>(Opcode::kWindow));
  EXPECT_EQ(out.flags, kFlagReply);
  EXPECT_EQ(out.request_id, 0xDEADBEEFCAFEF00Dull);
}

TEST(WireHeader, BadMagicStillYieldsRequestId) {
  FrameHeader h;
  h.opcode = static_cast<uint8_t>(Opcode::kKnn);
  h.request_id = 77;
  char buf[kHeaderSize];
  EncodeFrameHeader(buf, h);
  EncodeFixed32(buf, 0x12345678);  // corrupt the magic

  FrameHeader out;
  EXPECT_EQ(DecodeFrameHeader(buf, &out), WireError::kBadMagic);
  // The reply path echoes opcode/request_id from the rejected header.
  EXPECT_EQ(out.opcode, static_cast<uint8_t>(Opcode::kKnn));
  EXPECT_EQ(out.request_id, 77u);
}

TEST(WireHeader, BadVersion) {
  char buf[kHeaderSize];
  EncodeFrameHeader(buf, FrameHeader{});
  EncodeFixed16(buf + 8, kWireVersion + 1);
  FrameHeader out;
  EXPECT_EQ(DecodeFrameHeader(buf, &out), WireError::kBadVersion);
}

TEST(WireHeader, PayloadLengthOverflow) {
  FrameHeader h;
  h.payload_len = kMaxPayload + 1;
  char buf[kHeaderSize];
  EncodeFrameHeader(buf, h);
  FrameHeader out;
  EXPECT_EQ(DecodeFrameHeader(buf, &out), WireError::kFrameTooLarge);

  // 4 GiB claim: must be rejected from the header alone, before any
  // buffer for the payload could be allocated.
  h.payload_len = 0xFFFFFFFFu;
  EncodeFrameHeader(buf, h);
  EXPECT_EQ(DecodeFrameHeader(buf, &out), WireError::kFrameTooLarge);
}

TEST(FrameAssembler, SingleFrame) {
  FrameAssembler a;
  const std::string frame = BuildFrame(Opcode::kWindow, 0, 9,
                                       EncodeWindowRequest(Rect{0, 0, 1, 1}));
  a.Feed(frame.data(), frame.size());

  Frame out;
  WireError err;
  FrameHeader eh;
  ASSERT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kFrame);
  EXPECT_EQ(out.header.opcode, static_cast<uint8_t>(Opcode::kWindow));
  EXPECT_EQ(out.header.request_id, 9u);
  EXPECT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kNeedMore);
  EXPECT_EQ(a.buffered_bytes(), 0u);
}

TEST(FrameAssembler, FrameSplitByteByByte) {
  // The hardest chunking: every byte arrives in its own read, including
  // a split inside the header and inside the payload.
  FrameAssembler a;
  const std::string frame =
      BuildFrame(Opcode::kKnn, 0, 31, EncodeKnnRequest(Point{0.5, 0.5}, 7));
  Frame out;
  WireError err;
  FrameHeader eh;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    a.Feed(frame.data() + i, 1);
    ASSERT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kNeedMore)
        << "frame complete after only " << i + 1 << " bytes";
  }
  a.Feed(frame.data() + frame.size() - 1, 1);
  ASSERT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kFrame);
  EXPECT_EQ(out.header.request_id, 31u);

  Point p;
  uint32_t k;
  uint64_t max_lag;
  ASSERT_TRUE(DecodeKnnRequest(out.payload, &p, &k, &max_lag));
  EXPECT_EQ(k, 7u);
  EXPECT_EQ(max_lag, kNoStalenessBound);
  EXPECT_DOUBLE_EQ(p.x, 0.5);
}

TEST(FrameAssembler, ManyFramesInOneRead) {
  FrameAssembler a;
  std::string bytes;
  for (uint64_t id = 0; id < 50; ++id) bytes += PingFrame(id);
  a.Feed(bytes.data(), bytes.size());

  Frame out;
  WireError err;
  FrameHeader eh;
  for (uint64_t id = 0; id < 50; ++id) {
    ASSERT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kFrame);
    EXPECT_EQ(out.header.request_id, id);
  }
  EXPECT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kNeedMore);
}

TEST(FrameAssembler, TruncatedFrameNeverCompletes) {
  FrameAssembler a;
  const std::string frame =
      BuildFrame(Opcode::kWindow, 0, 1, EncodeWindowRequest(Rect{0, 0, 1, 1}));
  a.Feed(frame.data(), frame.size() - 1);  // all but the last byte
  Frame out;
  WireError err;
  FrameHeader eh;
  EXPECT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kNeedMore);
  EXPECT_EQ(a.buffered_bytes(), frame.size() - 1);
}

TEST(FrameAssembler, GarbagePoisonsTheStream) {
  FrameAssembler a;
  std::string garbage(64, '\x5a');
  a.Feed(garbage.data(), garbage.size());
  Frame out;
  WireError err;
  FrameHeader eh;
  ASSERT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kError);
  EXPECT_EQ(err, WireError::kBadMagic);
  EXPECT_TRUE(a.poisoned());

  // Poisoned for good: even a valid frame fed afterwards is not parsed —
  // resynchronising with a byte stream is not possible.
  const std::string good = PingFrame(5);
  a.Feed(good.data(), good.size());
  EXPECT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kError);
}

TEST(FrameAssembler, OversizedLengthPoisons) {
  FrameHeader h;
  h.payload_len = kMaxPayload + 1;
  h.opcode = static_cast<uint8_t>(Opcode::kApply);
  h.request_id = 99;
  char buf[kHeaderSize];
  EncodeFrameHeader(buf, h);

  FrameAssembler a;
  a.Feed(buf, sizeof(buf));
  Frame out;
  WireError err;
  FrameHeader eh;
  ASSERT_EQ(a.Poll(&out, &err, &eh), FrameAssembler::Next::kError);
  EXPECT_EQ(err, WireError::kFrameTooLarge);
  // The error reply can still echo who asked.
  EXPECT_EQ(eh.request_id, 99u);
  EXPECT_EQ(eh.opcode, static_cast<uint8_t>(Opcode::kApply));
}

TEST(Requests, WindowRoundTrip) {
  const Rect w{0.125, 0.25, 0.5, 0.75};
  Rect out;
  uint64_t max_lag = 0;
  ASSERT_TRUE(DecodeWindowRequest(EncodeWindowRequest(w), &out, &max_lag));
  EXPECT_DOUBLE_EQ(out.xlo, w.xlo);
  EXPECT_DOUBLE_EQ(out.yhi, w.yhi);
  EXPECT_EQ(max_lag, kNoStalenessBound);
  // The bound always rides in the same 8 bytes.
  const std::string bounded = EncodeWindowRequest(w, 12);
  EXPECT_EQ(bounded.size(), EncodeWindowRequest(w).size());
  ASSERT_TRUE(DecodeWindowRequest(bounded, &out, &max_lag));
  EXPECT_EQ(max_lag, 12u);
}

TEST(Requests, TruncatedWindowRejected) {
  const std::string enc = EncodeWindowRequest(Rect{0, 0, 1, 1});
  Rect out;
  uint64_t max_lag;
  for (size_t n = 0; n < enc.size(); ++n) {
    EXPECT_FALSE(DecodeWindowRequest(std::string_view(enc).substr(0, n), &out,
                                     &max_lag))
        << "accepted a " << n << "-byte prefix";
  }
  // Trailing junk is just as malformed as missing bytes.
  EXPECT_FALSE(DecodeWindowRequest(enc + "x", &out, &max_lag));
}

TEST(Requests, ApplyRoundTrip) {
  WriteBatch batch;
  batch.Insert(Rect{0.1, 0.1, 0.2, 0.2}, 41);
  batch.Erase(7);
  batch.Insert(Rect{0.3, 0.3, 0.4, 0.4});

  WriteBatch out;
  Durability d;
  ASSERT_TRUE(DecodeApplyRequest(EncodeApplyRequest(batch), &out, &d));
  EXPECT_EQ(d, Durability::kDurable);
  ASSERT_EQ(out.ops.size(), 3u);
  EXPECT_EQ(out.ops[0].kind, WriteOp::Kind::kInsert);
  EXPECT_EQ(out.ops[0].payload, 41u);
  EXPECT_DOUBLE_EQ(out.ops[0].mbr.xhi, 0.2);
  EXPECT_EQ(out.ops[1].kind, WriteOp::Kind::kErase);
  EXPECT_EQ(out.ops[1].oid, 7u);
  EXPECT_EQ(out.ops[2].kind, WriteOp::Kind::kInsert);
}

TEST(Requests, ApplyCountOverflowRejected) {
  // A count claiming far more ops than the payload could hold must be
  // rejected before any reserve() — this is the anti-OOM guard.
  std::string enc;
  PutFixed32(&enc, 0x40000000u);  // one billion ops, zero bytes of data
  WriteBatch out;
  Durability d;
  EXPECT_FALSE(DecodeApplyRequest(enc, &out, &d));
  EXPECT_TRUE(out.ops.empty() || out.ops.capacity() < 1000u);
}

TEST(Requests, ApplyBadOpKindRejected) {
  std::string enc;
  PutFixed32(&enc, 1);
  enc.push_back('\x02');  // kind 2 does not exist
  WriteBatch out;
  Durability d;
  EXPECT_FALSE(DecodeApplyRequest(enc, &out, &d));
}

TEST(Replies, ErrorRoundTrip) {
  const std::string payload =
      EncodeErrorReply(WireError::kBusy, "queue full");
  std::string_view body;
  std::string message;
  EXPECT_EQ(ParseReplyStatus(payload, &body, &message), WireError::kBusy);
  EXPECT_EQ(message, "queue full");
}

TEST(Replies, TruncatedErrorMessageIsMalformed) {
  std::string payload = EncodeErrorReply(WireError::kServerError, "boom");
  payload.pop_back();  // message now shorter than its length prefix
  std::string_view body;
  std::string message;
  EXPECT_EQ(ParseReplyStatus(payload, &body, &message),
            WireError::kMalformed);
  // And the degenerate case: no status byte at all.
  EXPECT_EQ(ParseReplyStatus({}, &body, &message), WireError::kMalformed);
}

TEST(Replies, IdListRoundTrip) {
  const std::vector<ObjectId> ids{3, 1, 4, 1, 5};
  const std::string payload = EncodeIdListReply(10, 12, ids);
  std::string_view body;
  std::string message;
  ASSERT_EQ(ParseReplyStatus(payload, &body, &message), WireError::kOk);

  uint64_t e0, e1;
  std::vector<ObjectId> out;
  ASSERT_TRUE(DecodeIdListReplyBody(body, &e0, &e1, &out));
  EXPECT_EQ(e0, 10u);
  EXPECT_EQ(e1, 12u);
  EXPECT_EQ(out, ids);
}

TEST(Replies, IdListCountOverflowRejected) {
  std::string body;
  PutFixed64(&body, 1);
  PutFixed64(&body, 1);
  PutFixed32(&body, 0x7FFFFFFFu);  // ids "present": two billion
  uint64_t e0, e1;
  std::vector<ObjectId> out;
  EXPECT_FALSE(DecodeIdListReplyBody(body, &e0, &e1, &out));
}

TEST(Replies, KnnRoundTrip) {
  const std::vector<std::pair<ObjectId, double>> hits{{9, 0.25}, {2, 1.5}};
  const std::string payload = EncodeKnnReply(4, 4, hits);
  std::string_view body;
  std::string message;
  ASSERT_EQ(ParseReplyStatus(payload, &body, &message), WireError::kOk);

  uint64_t e0, e1;
  std::vector<std::pair<ObjectId, double>> out;
  ASSERT_TRUE(DecodeKnnReplyBody(body, &e0, &e1, &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 9u);
  EXPECT_DOUBLE_EQ(out[0].second, 0.25);

  // Truncated at every prefix length: reject, never over-read.
  for (size_t n = 0; n < body.size(); ++n) {
    EXPECT_FALSE(DecodeKnnReplyBody(body.substr(0, n), &e0, &e1, &out));
  }
}

TEST(Replies, ApplyAndStatsRoundTrip) {
  std::string_view body;
  std::string message;

  const std::string apply = EncodeApplyReply(33, {100, 101});
  ASSERT_EQ(ParseReplyStatus(apply, &body, &message), WireError::kOk);
  uint64_t epoch;
  std::vector<ObjectId> inserted;
  ASSERT_TRUE(DecodeApplyReplyBody(body, &epoch, &inserted));
  EXPECT_EQ(epoch, 33u);
  EXPECT_EQ(inserted, (std::vector<ObjectId>{100, 101}));

  const std::string stats = EncodeStatsReply("{\"x\":1}");
  ASSERT_EQ(ParseReplyStatus(stats, &body, &message), WireError::kOk);
  std::string json;
  ASSERT_TRUE(DecodeStatsReplyBody(body, &json));
  EXPECT_EQ(json, "{\"x\":1}");
}

TEST(PayloadReaderTest, BoundsChecks) {
  std::string buf;
  PutFixed32(&buf, 7);
  PayloadReader r(buf);
  uint64_t v64;
  EXPECT_FALSE(r.GetU64(&v64));  // only 4 bytes remain
  uint32_t v32;
  EXPECT_TRUE(r.GetU32(&v32));
  EXPECT_EQ(v32, 7u);
  EXPECT_TRUE(r.AtEnd());
  uint8_t v8;
  EXPECT_FALSE(r.GetU8(&v8));  // empty now
}

TEST(PayloadReaderTest, LengthPrefixedStringTruncated) {
  std::string buf;
  PutFixed32(&buf, 100);  // claims 100 bytes...
  buf += "short";         // ...delivers 5
  PayloadReader r(buf);
  std::string s;
  EXPECT_FALSE(r.GetLengthPrefixedString(&s));
}

TEST(Names, OpcodesAndErrors) {
  EXPECT_TRUE(KnownOpcode(static_cast<uint8_t>(Opcode::kWindow)));
  EXPECT_FALSE(KnownOpcode(0));
  EXPECT_FALSE(KnownOpcode(200));
  EXPECT_STREQ(OpcodeName(Opcode::kApply), "apply");
  EXPECT_STREQ(WireErrorName(WireError::kBusy), "busy");
  EXPECT_STREQ(WireErrorName(WireError::kTimedOut), "timed_out");
}

TEST(WireHeader, OnlyTheCurrentVersionDecodes) {
  // Both ends ship together, so there is one version: every other value
  // — older, newer, zero — is kBadVersion.
  char buf[kHeaderSize];
  FrameHeader out;
  EncodeFrameHeader(buf, FrameHeader{});
  ASSERT_EQ(DecodeFrameHeader(buf, &out), WireError::kOk);
  EXPECT_EQ(out.version, kWireVersion);
  for (const uint16_t v :
       {uint16_t{0}, uint16_t{1}, uint16_t{2}, uint16_t{3},
        static_cast<uint16_t>(kWireVersion + 1), uint16_t{0xFFFF}}) {
    if (v == kWireVersion) continue;
    EncodeFixed16(buf + 8, v);
    EXPECT_EQ(DecodeFrameHeader(buf, &out), WireError::kBadVersion) << v;
  }
}

/// One row per request opcode: a valid payload and its strict decoder.
struct RequestCase {
  const char* name;
  std::string payload;
  bool (*decode)(std::string_view);
};

std::vector<RequestCase> RequestCases() {
  WriteBatch batch;
  batch.Insert(Rect{0.1, 0.1, 0.2, 0.2}, 9);
  batch.Erase(3);
  return {
      {"window", EncodeWindowRequest(Rect{0, 0, 1, 1}, 5),
       [](std::string_view p) {
         Rect w;
         uint64_t lag;
         return DecodeWindowRequest(p, &w, &lag);
       }},
      {"point", EncodePointRequest(Point{0.5, 0.25}),
       [](std::string_view p) {
         Point pt;
         uint64_t lag;
         return DecodePointRequest(p, &pt, &lag);
       }},
      {"knn", EncodeKnnRequest(Point{0.5, 0.25}, 8, 2),
       [](std::string_view p) {
         Point pt;
         uint32_t k;
         uint64_t lag;
         return DecodeKnnRequest(p, &pt, &k, &lag);
       }},
      {"apply", EncodeApplyRequest(batch, Durability::kPublished),
       [](std::string_view p) {
         WriteBatch b;
         Durability d;
         return DecodeApplyRequest(p, &b, &d);
       }},
  };
}

TEST(Requests, EveryRequestLayoutIsExact) {
  // One payload layout per opcode: the full payload decodes, and every
  // strict prefix, and the payload plus one byte, are malformed — there
  // are no optional trailers left to make a shorter or longer form valid.
  for (const RequestCase& c : RequestCases()) {
    SCOPED_TRACE(c.name);
    EXPECT_TRUE(c.decode(c.payload));
    for (size_t n = 0; n < c.payload.size(); ++n) {
      EXPECT_FALSE(c.decode(std::string_view(c.payload).substr(0, n)))
          << "accepted a " << n << "-byte prefix";
    }
    for (const char extra : {'\0', '\x01', '\xff'}) {
      EXPECT_FALSE(c.decode(c.payload + extra)) << "accepted one extra byte";
    }
  }
}

TEST(StatusMapping, EveryStatusCodeRoundTripsThroughTheWire) {
  // The bidirectional table must be lossless status -> wire -> status,
  // so a typed engine error crosses the protocol without degrading to
  // kServerError/Internal.
  const Status::Code codes[] = {
      Status::Code::kOk,          Status::Code::kNotFound,
      Status::Code::kCorruption,  Status::Code::kInvalidArgument,
      Status::Code::kIOError,     Status::Code::kNoSpace,
      Status::Code::kAlreadyExists, Status::Code::kInternal,
      Status::Code::kBusy,        Status::Code::kUnavailable,
      Status::Code::kTimedOut,
  };
  for (Status::Code c : codes) {
    EXPECT_EQ(WireErrorToStatusCode(StatusCodeToWireError(c)), c)
        << static_cast<int>(c);
  }
  const Status s =
      WireErrorToStatus(StatusCodeToWireError(Status::Code::kTimedOut),
                        "deadline blown");
  EXPECT_TRUE(s.IsTimedOut());
  EXPECT_EQ(s.message(), "deadline blown");
}

TEST(StatusMapping, FramingErrorsCollapseToIOError) {
  // Protocol-level failures have no engine-side Status identity; the
  // client reports them as I/O errors on the connection.
  for (WireError e : {WireError::kMalformed, WireError::kUnknownOpcode,
                      WireError::kBadVersion, WireError::kFrameTooLarge,
                      WireError::kBadMagic}) {
    EXPECT_EQ(WireErrorToStatusCode(e), Status::Code::kIOError)
        << WireErrorName(e);
  }
}

TEST(Requests, ApplyDurabilityFlagRoundTrip) {
  WriteBatch batch;
  batch.Insert(Rect{0.1, 0.1, 0.2, 0.2}, 9);
  batch.Erase(3);

  // Both values ride in the same trailing byte.
  const std::string durable = EncodeApplyRequest(batch, Durability::kDurable);
  const std::string published =
      EncodeApplyRequest(batch, Durability::kPublished);
  EXPECT_EQ(durable, EncodeApplyRequest(batch));
  EXPECT_EQ(durable.size(), published.size());
  WriteBatch out;
  Durability d = Durability::kPublished;
  ASSERT_TRUE(DecodeApplyRequest(durable, &out, &d));
  EXPECT_EQ(d, Durability::kDurable);
  out = WriteBatch{};
  ASSERT_TRUE(DecodeApplyRequest(published, &out, &d));
  EXPECT_EQ(d, Durability::kPublished);
  ASSERT_EQ(out.ops.size(), 2u);
  EXPECT_EQ(out.ops[1].oid, 3u);

  // An out-of-range flag byte is malformed.
  std::string bad = durable;
  bad.back() = '\x02';
  EXPECT_FALSE(DecodeApplyRequest(bad, &out, &d));
}

}  // namespace
}  // namespace net
}  // namespace zdb
