// Seeded violations: a protocol handler reads a wire field and ignores
// the accessor's success result — a short frame silently yields a
// zero-initialized length that flows into the reply — and ignores the
// shared batch-op decoder's result, so a truncated batch is applied
// half-decoded. zdb_lint must reject both with [decode-hygiene].

#include <cstdint>

namespace zdb {

class PayloadReader;
struct WriteBatch;
void UseCount(uint32_t n);
bool DecodeWriteOps(PayloadReader* r, bool with_oids, WriteBatch* batch);
void ApplyBatch(const WriteBatch& batch);

void HandleFrame(PayloadReader& reader) {
  uint32_t count = 0;
  reader.GetU32(&count);  // result ignored: truncated frames pass through
  UseCount(count);
}

void HandleApply(PayloadReader& reader, WriteBatch& batch) {
  DecodeWriteOps(&reader, false, &batch);  // result ignored
  ApplyBatch(batch);
}

}  // namespace zdb
