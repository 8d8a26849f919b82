// Byte-buffer reader/writer used by the wire codec (src/msg/codec.cpp).
//
// The threaded runtime serializes every message through this codec so that
// protocols exchange bytes, not shared pointers — the closest in-process
// equivalent of the gRPC deployment the reproduction hint calls for.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace snowkit {

/// Thrown by BufReader on malformed bytes (truncation, overlong varints,
/// absurd lengths).  Trusted-input entry points (decode_message,
/// decode_trace) catch it and abort — in-process bytes are produced by our
/// own encoder, so corruption there is an invariant violation.  Untrusted
/// entry points (try_decode_message, fed by the TCP transport) catch it and
/// error-return so a hostile peer cannot crash the process.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Largest mask length the wire accepts (docs/WIRE.md): one bit per object,
/// so this also bounds the object count of a system whose messages carry
/// masks.  Caps what a decoded mask may allocate.
inline constexpr std::uint64_t kMaxMaskBits = std::uint64_t{1} << 20;

/// Largest total of mask elements one message may decode to (docs/WIRE.md).
/// A sparse mask of n elements can cost two bytes, so without this cap a
/// small frame of many maximal masks (a replication batch of kListPush
/// records) would allocate gigabytes.  It is eight times the 16 MiB frame cap
/// (kMaxFrameBytes): every message whose dense wire-v1 bitmaps fit in a frame
/// — in particular a replica join's full-log resend — still decodes.
inline constexpr std::uint64_t kMaxMaskElemsPerMessage = std::uint64_t{1} << 27;

/// Calls fn(i) for each set element of a dense 0/1 mask, ascending.  Zero
/// bytes are skipped eight at a time, so a mask over k objects costs about
/// k/8 word tests plus its set bits.  Bytes other than 0/1 would read as set
/// — fail fast at the violating caller instead of corrupting silently.
template <typename Fn>
void for_each_mask_bit(const std::vector<std::uint8_t>& m, Fn&& fn) {
  const std::size_t n = m.size();
  const auto visit = [&](std::size_t i) {
    if (m[i] == 0) return;
    SNOW_CHECK_MSG(m[i] == 1, "mask byte " << int(m[i]) << " is not 0/1");
    fn(i);
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, m.data() + i, sizeof word);
    if (word == 0) continue;
    for (std::size_t j = i; j < i + 8; ++j) visit(j);
  }
  for (; i < n; ++i) visit(i);
}

class BufWriter {
 public:
  /// Writes into an internally owned buffer (retrieve with take()).
  BufWriter() : buf_(&own_) {}

  /// Writes into `out`, clearing it first but KEEPING its capacity — the
  /// ThreadRuntime fast path encodes every message into a recycled buffer,
  /// so steady-state sends allocate nothing.
  explicit BufWriter(std::vector<std::uint8_t>& out) : buf_(&out) { out.clear(); }

  // buf_ may point at own_, which copying/moving would leave aliased or
  // dangling; writers are scoped helpers, never passed by value.
  BufWriter(const BufWriter&) = delete;
  BufWriter& operator=(const BufWriter&) = delete;

  void u8(std::uint8_t v) { buf_->push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }

  /// LEB128 varint: 1 byte for values < 128, the common case for object ids,
  /// tags, masks lengths and delta-coded positions on the wire.
  void uv(std::uint64_t v) {
    while (v >= 0x80) {
      buf_->push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_->push_back(static_cast<std::uint8_t>(v));
  }

  /// ZigZag-mapped varint for signed values near zero.
  void zz(std::int64_t v) {
    uv((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& write_elem) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) write_elem(*this, e);
  }

  /// Varint-length-prefixed vector (the compact sibling of vec()).
  template <typename T, typename Fn>
  void cvec(const std::vector<T>& v, Fn&& write_elem) {
    uv(v.size());
    for (const auto& e : v) write_elem(*this, e);
  }

  /// A 0/1 mask as its length, its set-bit count and the delta-coded
  /// ascending set-bit indices (docs/WIRE.md `mask(n)`), so a mask costs
  /// bytes in proportion to its set bits, not to n.  An empty mask is its
  /// length alone: one byte, as every non-push ReplRecord carries one.
  void mask(const std::vector<std::uint8_t>& m) {
    SNOW_CHECK_MSG(m.size() <= kMaxMaskBits,
                   "mask of " << m.size() << " bits exceeds kMaxMaskBits");
    mask_elems_ += m.size();
    SNOW_CHECK_MSG(mask_elems_ <= kMaxMaskElemsPerMessage,
                   "message masks total " << mask_elems_
                                          << " elements, above kMaxMaskElemsPerMessage");
    uv(m.size());
    if (m.empty()) return;
    std::size_t count = 0;
    for_each_mask_bit(m, [&](std::size_t) { ++count; });
    uv(count);
    std::size_t prev = 0;
    for_each_mask_bit(m, [&](std::size_t i) {
      uv(i - prev);
      prev = i;
    });
  }

  std::vector<std::uint8_t> take() { return std::move(*buf_); }
  std::size_t size() const { return buf_->size(); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_->insert(buf_->end(), b, b + n);
  }
  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* buf_;
  std::uint64_t mask_elems_ = 0;  ///< mask elements written, for the per-message cap.
};

/// Drop-in BufWriter stand-in that only counts bytes: encoded_size() runs the
/// encoder against this, so wire-volume accounting never heap-allocates.
class SizeWriter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i64(std::int64_t) { n_ += 8; }

  void uv(std::uint64_t v) {
    ++n_;
    while (v >= 0x80) {
      ++n_;
      v >>= 7;
    }
  }

  void zz(std::int64_t v) {
    uv((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  void str(const std::string& s) { n_ += 4 + s.size(); }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& write_elem) {
    n_ += 4;
    for (const auto& e : v) write_elem(*this, e);
  }

  template <typename T, typename Fn>
  void cvec(const std::vector<T>& v, Fn&& write_elem) {
    uv(v.size());
    for (const auto& e : v) write_elem(*this, e);
  }

  void mask(const std::vector<std::uint8_t>& m) {
    uv(m.size());
    if (m.empty()) return;
    std::size_t count = 0;
    std::size_t prev = 0;
    for_each_mask_bit(m, [&](std::size_t i) {
      ++count;
      uv(i - prev);
      prev = i;
    });
    uv(count);
  }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Bounds-checked reader; every malformation throws CodecError (see above
/// for who catches it and how).
class BufReader {
 public:
  explicit BufReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof v); return v; }

  std::uint64_t uv() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw CodecError("varint longer than 10 bytes");
  }

  std::int64_t zz() {
    const std::uint64_t u = uv();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& read_elem) {
    std::uint32_t n = u32();
    if (n > buf_.size()) throw CodecError("vec length exceeds buffer");
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(read_elem(*this));
    return v;
  }

  template <typename T, typename Fn>
  std::vector<T> cvec(Fn&& read_elem) {
    const std::uint64_t n = uv();
    if (n > buf_.size()) throw CodecError("cvec length exceeds buffer");
    std::vector<T> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_elem(*this));
    return v;
  }

  /// Decodes mask(n).  Untrusted input: n is capped per mask and, summed
  /// over the reader's masks, per message, and the indices are validated in
  /// a first pass so nothing n-sized is allocated for a malformed mask.
  std::vector<std::uint8_t> mask() {
    const std::uint64_t n = uv();
    if (n > kMaxMaskBits) throw CodecError("mask length exceeds kMaxMaskBits");
    if (n > mask_budget_) throw CodecError("message masks exceed kMaxMaskElemsPerMessage");
    mask_budget_ -= n;
    if (n == 0) return {};
    const std::uint64_t count = uv();
    if (count > n) throw CodecError("mask has more set bits than its length");
    const std::size_t first = pos_;
    std::uint64_t idx = 0;
    for (std::uint64_t j = 0; j < count; ++j) {
      const std::uint64_t d = uv();
      if (j != 0 && d == 0) throw CodecError("mask indices repeat");
      if (d >= n - idx) throw CodecError("mask index out of range or not ascending");
      idx += d;
    }
    std::vector<std::uint8_t> m(n, 0);
    pos_ = first;
    idx = 0;
    for (std::uint64_t j = 0; j < count; ++j) {
      idx += uv();
      m[idx] = 1;
    }
    return m;
  }

  bool done() const { return pos_ == buf_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > buf_.size()) throw CodecError("truncated buffer");
  }
  void raw(void* p, std::size_t n) {
    need(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
  std::uint64_t mask_budget_ = kMaxMaskElemsPerMessage;  ///< mask elements left to decode.
};

}  // namespace snowkit
