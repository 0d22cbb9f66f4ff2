// Copyright (c) zdb authors. Licensed under the MIT license.

#include "btree/node.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "common/coding.h"

namespace zdb {

namespace {
constexpr size_t kTypeOff = 0;
constexpr size_t kCountOff = 2;
constexpr size_t kContentStartOff = 4;
constexpr size_t kFragOff = 6;
constexpr size_t kNextOff = 8;
}  // namespace

void Node::Init(PageRef* ref, Type type, uint32_t page_size) {
  char* p = ref->mutable_data();
  std::memset(p, 0, kHeaderSize);
  p[kTypeOff] = static_cast<char>(type);
  EncodeFixed16(p + kCountOff, 0);
  EncodeFixed16(p + kContentStartOff, static_cast<uint16_t>(page_size - 1));
  EncodeFixed16(p + kFragOff, 0);
  EncodeFixed32(p + kNextOff, kInvalidPageId);
}

Node::Type Node::type() const {
  return static_cast<Type>(base()[kTypeOff]);
}

uint16_t Node::count() const { return DecodeFixed16(base() + kCountOff); }
void Node::set_count(uint16_t n) { EncodeFixed16(mbase() + kCountOff, n); }

uint16_t Node::content_start() const {
  return DecodeFixed16(base() + kContentStartOff);
}
void Node::set_content_start(uint16_t v) {
  EncodeFixed16(mbase() + kContentStartOff, v);
}

uint16_t Node::frag_bytes() const { return DecodeFixed16(base() + kFragOff); }
void Node::set_frag_bytes(uint16_t v) {
  EncodeFixed16(mbase() + kFragOff, v);
}

PageId Node::next() const { return DecodeFixed32(base() + kNextOff); }
void Node::set_next(PageId id) { EncodeFixed32(mbase() + kNextOff, id); }

uint16_t Node::SlotOffset(uint16_t i) const {
  assert(i < count());
  return DecodeFixed16(base() + kHeaderSize + 2 * i);
}

void Node::SetSlotOffset(uint16_t i, uint16_t off) {
  EncodeFixed16(mbase() + kHeaderSize + 2 * i, off);
}

Slice Node::Key(uint16_t i) const {
  const char* p = Cell(i);
  const char* limit = base() + page_size_;
  uint32_t klen = 0;
  bool ok = GetVarint32(&p, limit, &klen);
  assert(ok);
  (void)ok;
  if (is_leaf()) {
    uint32_t vlen = 0;
    ok = GetVarint32(&p, limit, &vlen);
    assert(ok);
  }
  return Slice(p, klen);
}

Slice Node::Value(uint16_t i) const {
  assert(is_leaf());
  const char* p = Cell(i);
  const char* limit = base() + page_size_;
  uint32_t klen = 0, vlen = 0;
  bool ok = GetVarint32(&p, limit, &klen) && GetVarint32(&p, limit, &vlen);
  assert(ok);
  (void)ok;
  return Slice(p + klen, vlen);
}

PageId Node::Child(uint16_t i) const {
  assert(!is_leaf());
  if (i == count()) return next();
  const char* p = Cell(i);
  const char* limit = base() + page_size_;
  uint32_t klen = 0;
  bool ok = GetVarint32(&p, limit, &klen);
  assert(ok);
  (void)ok;
  return DecodeFixed32(p + klen);
}

void Node::SetChild(uint16_t i, PageId child) {
  assert(!is_leaf());
  if (i == count()) {
    set_next(child);
    return;
  }
  char* p = mbase() + SlotOffset(i);
  const char* q = p;
  const char* limit = base() + page_size_;
  uint32_t klen = 0;
  bool ok = GetVarint32(&q, limit, &klen);
  assert(ok);
  (void)ok;
  EncodeFixed32(p + (q - p) + klen, child);
}

size_t Node::CellSize(uint16_t i) const {
  const char* p = Cell(i);
  const char* start = p;
  const char* limit = base() + page_size_;
  uint32_t klen = 0;
  bool ok = GetVarint32(&p, limit, &klen);
  assert(ok);
  (void)ok;
  if (is_leaf()) {
    uint32_t vlen = 0;
    ok = GetVarint32(&p, limit, &vlen);
    assert(ok);
    return static_cast<size_t>(p - start) + klen + vlen;
  }
  return static_cast<size_t>(p - start) + klen + 4;
}

uint16_t Node::LowerBound(const Slice& key) const {
  uint16_t lo = 0, hi = count();
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (Key(mid).compare(key) < 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t Node::UpperBound(const Slice& key) const {
  uint16_t lo = 0, hi = count();
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (Key(mid).compare(key) <= 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t Node::LeafCellSize(size_t klen, size_t vlen) {
  return VarintLength32(static_cast<uint32_t>(klen)) +
         VarintLength32(static_cast<uint32_t>(vlen)) + klen + vlen;
}

size_t Node::InternalCellSize(size_t klen) {
  return VarintLength32(static_cast<uint32_t>(klen)) + klen + 4;
}

size_t Node::UsedBytes() const {
  // Header, slots, live cells, garbage and the gap between slots and
  // cells tile the page, so the live payload is what FreeBytes leaves.
  return (page_size_ - kHeaderSize) - FreeBytes();
}

size_t Node::FreeBytes() const {
  const size_t slots_end = kHeaderSize + 2 * count();
  const size_t contiguous = (content_start() + 1) - slots_end;
  return contiguous + frag_bytes();
}

void Node::Compact() {
  const uint16_t n = count();
  std::vector<std::pair<uint16_t, std::vector<char>>> cells;
  cells.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    const size_t sz = CellSize(i);
    std::vector<char> bytes(sz);
    std::memcpy(bytes.data(), Cell(i), sz);
    cells.emplace_back(i, std::move(bytes));
  }
  size_t top = page_size_;
  char* p = mbase();
  for (auto& [idx, bytes] : cells) {
    top -= bytes.size();
    std::memcpy(p + top, bytes.data(), bytes.size());
    SetSlotOffset(idx, static_cast<uint16_t>(top));
  }
  set_content_start(static_cast<uint16_t>(top - 1));
  set_frag_bytes(0);
}

bool Node::InsertCell(uint16_t i, const char* cell, size_t size) {
  assert(i <= count());
  const uint16_t n = count();
  if (!HasSpaceFor(size)) return false;
  const size_t slots_end = kHeaderSize + 2 * (n + 1);
  size_t contiguous = (content_start() + 1) - (kHeaderSize + 2 * n);
  if (contiguous < size + 2) {
    Compact();
    contiguous = (content_start() + 1) - (kHeaderSize + 2 * n);
    if (contiguous < size + 2) return false;  // pathological varint shrink
  }
  const uint16_t off =
      static_cast<uint16_t>((content_start() + 1) - size);
  assert(off >= slots_end);
  (void)slots_end;
  std::memcpy(mbase() + off, cell, size);
  // Shift slots [i, n) right by one.
  char* slots = mbase() + kHeaderSize;
  std::memmove(slots + 2 * (i + 1), slots + 2 * i, 2 * (n - i));
  set_count(static_cast<uint16_t>(n + 1));
  SetSlotOffset(i, off);
  set_content_start(static_cast<uint16_t>(off - 1));
  return true;
}

bool Node::LeafInsert(uint16_t i, const Slice& key, const Slice& value) {
  assert(is_leaf());
  const size_t sz = LeafCellSize(key.size(), value.size());
  std::vector<char> cell(sz);
  char* p = cell.data();
  p += EncodeVarint32(p, static_cast<uint32_t>(key.size()));
  p += EncodeVarint32(p, static_cast<uint32_t>(value.size()));
  std::memcpy(p, key.data(), key.size());
  std::memcpy(p + key.size(), value.data(), value.size());
  return InsertCell(i, cell.data(), sz);
}

bool Node::InternalInsert(uint16_t i, const Slice& key, PageId child) {
  assert(!is_leaf());
  const size_t sz = InternalCellSize(key.size());
  std::vector<char> cell(sz);
  char* p = cell.data();
  p += EncodeVarint32(p, static_cast<uint32_t>(key.size()));
  std::memcpy(p, key.data(), key.size());
  EncodeFixed32(p + key.size(), child);
  return InsertCell(i, cell.data(), sz);
}

void Node::Remove(uint16_t i) {
  const uint16_t n = count();
  assert(i < n);
  const size_t sz = CellSize(i);
  const uint16_t off = SlotOffset(i);
  char* slots = mbase() + kHeaderSize;
  std::memmove(slots + 2 * i, slots + 2 * (i + 1), 2 * (n - i - 1));
  set_count(static_cast<uint16_t>(n - 1));
  if (off == content_start() + 1) {
    // Cell was the lowest; grow the contiguous area directly.
    set_content_start(static_cast<uint16_t>(off + sz - 1));
  } else {
    set_frag_bytes(static_cast<uint16_t>(frag_bytes() + sz));
  }
}

bool Node::LeafSetValue(uint16_t i, const Slice& value) {
  assert(is_leaf());
  std::string key = Key(i).ToString();
  std::string old_value = Value(i).ToString();
  Remove(i);
  if (!LeafInsert(i, Slice(key), value)) {
    // Not enough space for the new value: restore the original entry
    // (guaranteed to fit since it was just removed) and report failure.
    bool restored = LeafInsert(i, Slice(key), Slice(old_value));
    assert(restored);
    (void)restored;
    return false;
  }
  return true;
}

}  // namespace zdb
