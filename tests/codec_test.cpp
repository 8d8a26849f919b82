// Round-trip tests for the wire codec: every payload alternative must
// survive encode/decode bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/buffer.hpp"
#include "msg/codec.hpp"

namespace snowkit {
namespace {

template <typename T>
void roundtrip(T payload, TxnId txn = 7) {
  Message m{txn, Payload{std::move(payload)}};
  const auto bytes = encode_message(m);
  const Message back = decode_message(bytes);
  EXPECT_EQ(back.txn, m.txn);
  EXPECT_EQ(back.payload.index(), m.payload.index());
  EXPECT_EQ(std::string(payload_name(back.payload)), payload_name(m.payload));
}

TEST(Codec, WriteVal) {
  roundtrip(WriteValReq{WriteKey{3, 9}, 1, 42});
  Message m{5, WriteValReq{WriteKey{3, 9}, 1, 42}};
  const Message back = decode_message(encode_message(m));
  const auto& p = std::get<WriteValReq>(back.payload);
  EXPECT_EQ(p.key, (WriteKey{3, 9}));
  EXPECT_EQ(p.obj, 1u);
  EXPECT_EQ(p.value, 42);
}

TEST(Codec, WriteValAck) { roundtrip(WriteValAck{WriteKey{1, 2}, 0}); }

TEST(Codec, InfoReader) {
  Message m{5, InfoReaderReq{WriteKey{8, 1}, {0, 2}}};
  const Message back = decode_message(encode_message(m));
  const auto& p = std::get<InfoReaderReq>(back.payload);
  EXPECT_EQ(p.key, (WriteKey{8, 1}));
  EXPECT_EQ(p.mask, (std::vector<ObjectId>{0, 2}));
}

TEST(Codec, InfoReaderAck) { roundtrip(InfoReaderAck{99}); }
TEST(Codec, UpdateCoor) { roundtrip(UpdateCoorReq{WriteKey{2, 3}, {1}}); }
TEST(Codec, UpdateCoorAck) { roundtrip(UpdateCoorAck{12}); }
TEST(Codec, GetTagArr) { roundtrip(GetTagArrReq{{0, 1}}); }

TEST(Codec, GetTagArrRespWithHistory) {
  GetTagArrResp resp;
  resp.tag = 4;
  resp.latest = {WriteKey{1, 0}, WriteKey{2, 1}};
  resp.history = {{ListedKey{0, kInitialKey}, ListedKey{3, WriteKey{1, 0}}}, {}};
  Message m{11, resp};
  const Message back = decode_message(encode_message(m));
  const auto& p = std::get<GetTagArrResp>(back.payload);
  EXPECT_EQ(p.tag, 4u);
  ASSERT_EQ(p.latest.size(), 2u);
  EXPECT_EQ(p.latest[1], (WriteKey{2, 1}));
  ASSERT_EQ(p.history.size(), 2u);
  ASSERT_EQ(p.history[0].size(), 2u);
  EXPECT_EQ(p.history[0][1].position, 3u);
  EXPECT_EQ(p.history[0][1].key, (WriteKey{1, 0}));
  EXPECT_TRUE(p.history[1].empty());
}

TEST(Codec, ReadVal) { roundtrip(ReadValReq{0, WriteKey{5, 5}}); }
TEST(Codec, ReadValResp) { roundtrip(ReadValResp{0, WriteKey{5, 5}, -3}); }
TEST(Codec, ReadVals) { roundtrip(ReadValsReq{2}); }

TEST(Codec, ReadValsRespVersions) {
  ReadValsResp resp{1, {Version{kInitialKey, 0}, Version{WriteKey{1, 4}, 77}}};
  Message m{1, resp};
  const Message back = decode_message(encode_message(m));
  const auto& p = std::get<ReadValsResp>(back.payload);
  ASSERT_EQ(p.versions.size(), 2u);
  EXPECT_EQ(p.versions[1].value, 77);
}

TEST(Codec, Finalize) { roundtrip(FinalizeReq{WriteKey{9, 9}, 3, 17}); }
TEST(Codec, EigerWrite) { roundtrip(EigerWriteReq{0, 5, 3}); }
TEST(Codec, EigerWriteAck) { roundtrip(EigerWriteAck{0, 7, 7}); }
TEST(Codec, EigerRead) { roundtrip(EigerReadReq{1, 2}); }
TEST(Codec, EigerReadResp) { roundtrip(EigerReadResp{1, 10, 2, 5, 5}); }
TEST(Codec, EigerReadAt) { roundtrip(EigerReadAtReq{1, 4, 6}); }
TEST(Codec, EigerReadAtResp) { roundtrip(EigerReadAtResp{1, 10, 8}); }
TEST(Codec, Lock) { roundtrip(LockReq{2, true}); }
TEST(Codec, LockGrant) { roundtrip(LockGrant{2, 123}); }
TEST(Codec, WriteUnlock) { roundtrip(WriteUnlockReq{2, 9}); }
TEST(Codec, Unlock) { roundtrip(UnlockReq{2}); }
TEST(Codec, UnlockAck) { roundtrip(UnlockAck{2}); }
TEST(Codec, SimpleRead) { roundtrip(SimpleReadReq{0}); }
TEST(Codec, SimpleReadResp) { roundtrip(SimpleReadResp{0, 1}); }
TEST(Codec, SimpleWrite) { roundtrip(SimpleWriteReq{0, 1}); }
TEST(Codec, SimpleWriteAck) { roundtrip(SimpleWriteAck{0}); }

TEST(Codec, EncodedSizeMatches) {
  Message m{3, ReadValsResp{0, {Version{kInitialKey, 0}}}};
  EXPECT_EQ(encoded_size(m), encode_message(m).size());
}

TEST(Codec, VersionCountClassifier) {
  EXPECT_EQ(version_count(Payload{ReadValResp{}}), 1);
  EXPECT_EQ(version_count(Payload{ReadValsResp{0, {Version{}, Version{}, Version{}}}}), 3);
  EXPECT_EQ(version_count(Payload{WriteValReq{}}), 0);
}

// try_decode_message is the UNTRUSTED entry point (network frames): every
// malformation must error-return, never abort.
TEST(Codec, TryDecodeAcceptsValidBytes) {
  const Message m{5, Payload{WriteValReq{WriteKey{3, 9}, 1, 42}}};
  Message out;
  std::string err;
  ASSERT_TRUE(try_decode_message(encode_message(m), out, err)) << err;
  EXPECT_EQ(out, m);
}

TEST(Codec, TryDecodeRejectsMalformedBytes) {
  Message out;
  std::string err;
  // Out-of-range payload index.
  EXPECT_FALSE(try_decode_message({0x00, 0xFF}, out, err));
  // Empty buffer.
  EXPECT_FALSE(try_decode_message({}, out, err));
  // Truncated: valid prefix of a real message, cut at every byte offset.
  const auto full = encode_message(Message{7, Payload{GetTagArrResp{
      4, 2, {WriteKey{1, 0}, WriteKey{2, 1}}, {{ListedKey{1, WriteKey{1, 0}}}}}}});
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> prefix(full.begin(),
                                     full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(try_decode_message(prefix, out, err)) << "cut at " << cut;
  }
  // Trailing garbage after a complete payload.
  auto padded = full;
  padded.push_back(0x00);
  EXPECT_FALSE(try_decode_message(padded, out, err));
  // And the full buffer still decodes.
  EXPECT_TRUE(try_decode_message(full, out, err)) << err;
}

// --- object sets (docs/WIRE.md `ids`) --------------------------------------

/// Every n-th id below `universe`, ascending.
std::vector<ObjectId> every(std::size_t universe, std::size_t n) {
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < universe; i += n) ids.push_back(static_cast<ObjectId>(i));
  return ids;
}

TEST(Codec, SparseMaskRoundTripsAtEveryLengthAndDensity) {
  constexpr ObjectId kTop = std::numeric_limits<ObjectId>::max();
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
    std::vector<std::vector<ObjectId>> sets{{}, every(n, 1)};
    if (n > 0) sets.push_back({static_cast<ObjectId>(n - 1)});
    if (n >= 64) {
      sets.push_back({0, 7, 8, static_cast<ObjectId>(n / 2), static_cast<ObjectId>(n - 1)});
    }
    sets.push_back({0, kTop});  // the widest delta an ObjectId allows
    for (const auto& set : sets) {
      for (const Message& m : {Message{3, GetTagArrReq{set}},
                               Message{4, UpdateCoorReq{WriteKey{2, 1}, set}},
                               Message{5, InfoReaderReq{WriteKey{9, 0}, set}}}) {
        const auto bytes = encode_message(m);
        EXPECT_EQ(encoded_size(m), bytes.size()) << "n=" << n;
        EXPECT_EQ(decode_message(bytes), m) << "n=" << n;
      }
    }
  }
}

TEST(Codec, SparseMaskCostsItsSetBitsNotItsLength) {
  // txn + tag + uv(count) + one delta per id, whatever the system's k.
  EXPECT_EQ(encode_message(Message{1, GetTagArrReq{{}}}).size(), 3u);  // empty: uv(0) alone
  EXPECT_EQ(encode_message(Message{1, GetTagArrReq{{3, 9}}}).size(), 5u);
  EXPECT_EQ(encode_message(Message{1, GetTagArrReq{{3, 4000}}}).size(), 6u);
}

/// A get-tag-arr message whose ids field is exactly `fields` (as varints).
std::vector<std::uint8_t> get_tag_arr_bytes(std::initializer_list<std::uint64_t> fields) {
  BufWriter w;
  w.uv(7);  // txn
  w.u8(static_cast<std::uint8_t>(Payload{GetTagArrReq{}}.index()));
  for (std::uint64_t f : fields) w.uv(f);
  return w.take();
}

TEST(Codec, TryDecodeRejectsMalformedMasks) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kTop = std::numeric_limits<ObjectId>::max();
  const std::vector<std::pair<const char*, std::vector<std::uint8_t>>> bad{
      {"count above the bytes left", get_tag_arr_bytes({3, 1, 1})},
      {"count far above the bytes left", get_tag_arr_bytes({kMax, 0})},
      {"repeated id", get_tag_arr_bytes({2, 3, 0})},
      {"repeated id after others", get_tag_arr_bytes({3, 0, 4, 0})},
      {"first id overflows ObjectId", get_tag_arr_bytes({1, kTop + 1})},
      {"running sum overflows ObjectId", get_tag_arr_bytes({2, 5, kTop - 4})},
      {"delta wraps u64", get_tag_arr_bytes({2, 5, kMax})},
      {"truncated ids", get_tag_arr_bytes({2, 16384})},
      {"missing count", get_tag_arr_bytes({})},
  };
  for (const auto& [what, bytes] : bad) {
    Message out;
    std::string err;
    EXPECT_FALSE(try_decode_message(bytes, out, err)) << what;
    EXPECT_FALSE(err.empty()) << what;
  }
  // The boundaries themselves are valid: a first id of 0, the largest
  // ObjectId, and a count equal to the bytes left.
  Message out;
  std::string err;
  ASSERT_TRUE(try_decode_message(get_tag_arr_bytes({2, 0, 7}), out, err)) << err;
  EXPECT_EQ(std::get<GetTagArrReq>(out.payload).want, (std::vector<ObjectId>{0, 7}));
  ASSERT_TRUE(try_decode_message(get_tag_arr_bytes({2, 5, kTop - 5}), out, err)) << err;
  EXPECT_EQ(std::get<GetTagArrReq>(out.payload).want,
            (std::vector<ObjectId>{5, static_cast<ObjectId>(kTop)}));
}

}  // namespace
}  // namespace snowkit
