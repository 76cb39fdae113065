// Tests for binary persistence: component round trips, whole-database
// save/load, and corruption injection (truncation at every byte prefix,
// random bit flips) — a corrupt image must produce Status::Corruption,
// never a crash or silent bad data.

#include "storage/serde.h"

#include <cstdio>

#include "common/random.h"
#include "evolution/decompose.h"
#include "evolution/simple_ops.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::ExpectSameContent;
using ::cods::testing::Figure1TableR;
using ::cods::testing::RandomFdTable;

TEST(BinaryRW, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.25);
  w.Str("hello");
  w.Str("");
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.U8().ValueOrDie(), 0xAB);
  EXPECT_EQ(r.U32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64().ValueOrDie(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64().ValueOrDie(), -42);
  EXPECT_EQ(r.F64().ValueOrDie(), 3.25);
  EXPECT_EQ(r.Str().ValueOrDie(), "hello");
  EXPECT_EQ(r.Str().ValueOrDie(), "");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.U8().status().IsCorruption());
}

TEST(BitmapSerde, RoundTrip) {
  Rng rng(3);
  for (double density : {0.0, 0.001, 0.5, 1.0}) {
    WahBitmap bm;
    for (int i = 0; i < 5000; ++i) bm.AppendBit(rng.NextBool(density));
    BinaryWriter w;
    WriteBitmap(bm, &w);
    BinaryReader r(w.buffer());
    WahBitmap back = ReadBitmap(&r).ValueOrDie();
    EXPECT_EQ(back, bm);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(BitmapSerde, RejectsInconsistentHeader) {
  WahBitmap bm = WahBitmap::FromPositions({5, 100}, 1000);
  BinaryWriter w;
  WriteBitmap(bm, &w);
  std::vector<uint8_t> bytes = w.buffer();
  bytes[0] ^= 0xFF;  // corrupt num_bits
  BinaryReader r(bytes);
  EXPECT_TRUE(ReadBitmap(&r).status().IsCorruption());
}

// A count field claiming 2^30 - 1 elements in a buffer of a few bytes
// is Corruption naming the whole claimed byte length, checked before
// anything is reserved — not an 8 GB reserve() followed by a short read.
TEST(BitmapSerde, ClaimedCountsAreBoundedByTheBytesLeft) {
  constexpr uint32_t kClaimed = (1u << 30) - 1;
  const std::string words_need = "(need " + std::to_string(
      uint64_t{kClaimed} * 8) + ")";
  const std::string positions_need = "(need " + std::to_string(
      uint64_t{kClaimed} * 4) + ")";
  auto expect_corruption = [](const Status& st, const std::string& need) {
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.message().find(need), std::string::npos) << st.ToString();
  };
  {
    BinaryWriter w;  // WAH header: num_bits, tail, tail_bits, word_count
    w.U64(64);
    w.U64(0);
    w.U8(0);
    w.U32(kClaimed);
    w.U64(0);
    BinaryReader r(w.buffer());
    expect_corruption(ReadBitmap(&r).status(), words_need);
  }
  for (BitmapRep rep : {BitmapRep::kArray, BitmapRep::kBitset}) {
    BinaryWriter w;
    w.U8(static_cast<uint8_t>(rep));
    w.U32(kClaimed);
    w.U64(0);
    BinaryReader r(w.buffer());
    expect_corruption(ReadValueBitmap(&r, 64).status(),
                      rep == BitmapRep::kArray ? positions_need : words_need);
  }
}

// Fill lengths whose sum wraps modulo 2^64 to the header's 71 bits must
// not load, neither as a v1/v2 bitmap nor as a v3 WAH container.
TEST(BitmapSerde, FillLengthsAreBoundedByTheHeader) {
  auto write_payload = [](BinaryWriter* w) {
    w->U64(71);  // num_bits
    w->U64(0);   // tail
    w->U8(0);    // tail_bits
    w->U32(2);   // word_count
    w->U64(wah::MakeFill(true, 4538484653055524604ull));
    w->U64(wah::MakeFill(true, 4538484653055524605ull));
  };
  {
    BinaryWriter w;
    write_payload(&w);
    BinaryReader r(w.buffer());
    Status st = ReadBitmap(&r).status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
  {
    BinaryWriter w;
    w.U8(static_cast<uint8_t>(BitmapRep::kWah));
    write_payload(&w);
    BinaryReader r(w.buffer());
    Status st = ReadValueBitmap(&r, 71).status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

TEST(ValueSerde, AllTypesRoundTrip) {
  for (const Value& v : {Value(int64_t{-7}), Value(2.5), Value("text"),
                         Value(std::string())}) {
    BinaryWriter w;
    WriteValue(v, &w);
    BinaryReader r(w.buffer());
    EXPECT_EQ(ReadValue(&r).ValueOrDie(), v);
  }
}

TEST(DictionarySerde, PreservesVidOrder) {
  Dictionary dict;
  dict.GetOrInsert(Value("z"));
  dict.GetOrInsert(Value(int64_t{5}));
  dict.GetOrInsert(Value(1.5));
  BinaryWriter w;
  WriteDictionary(dict, &w);
  BinaryReader r(w.buffer());
  Dictionary back = ReadDictionary(&r).ValueOrDie();
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.value(0), Value("z"));
  EXPECT_EQ(back.value(1), Value(int64_t{5}));
  EXPECT_EQ(back.value(2), Value(1.5));
}

TEST(ColumnSerde, WahAndRleRoundTrip) {
  // The RLE half is covered by the legacy-image fixtures in test_rle.
  Dictionary dict;
  dict.GetOrInsert(Value(int64_t{10}));
  dict.GetOrInsert(Value(int64_t{20}));
  std::vector<Vid> vids = {0, 0, 1, 0, 1, 1, 1, 0};
  auto col = Column::FromVids(DataType::kInt64, dict, vids);
  BinaryWriter w;
  WriteColumn(*col, &w);
  BinaryReader r(w.buffer());
  auto back = ReadColumn(&r).ValueOrDie();
  EXPECT_EQ(back->DecodeVids(), vids);
  EXPECT_TRUE(back->ValidateInvariants().ok());
}

TEST(TableSerde, RoundTripWithKeysAndMixedTypes) {
  Schema schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"score", DataType::kDouble},
                 {"grade", DataType::kInt64}},
                {"id"});
  TableBuilder builder("mixed", schema);
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(builder
                    .AppendRow({Value(i), Value("n" + std::to_string(i % 7)),
                                Value(i * 0.5), Value(i / 100)})
                    .ok());
  }
  auto table = builder.Finish().ValueOrDie();
  BinaryWriter w;
  WriteTable(*table, &w);
  BinaryReader r(w.buffer());
  auto back = ReadTable(&r).ValueOrDie();
  EXPECT_EQ(back->name(), "mixed");
  EXPECT_TRUE(back->schema().IsKey({"id"}));
  ExpectSameContent(*table, *back);
}

TEST(CatalogSerde, WholeDatabaseRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  ASSERT_TRUE(catalog.AddTable(RandomFdTable(800, 40, 9)->WithName("X")).ok());
  std::vector<uint8_t> image = SerializeCatalog(catalog);
  Catalog back = DeserializeCatalog(image).ValueOrDie();
  EXPECT_EQ(back.TableNames(), catalog.TableNames());
  for (const std::string& name : catalog.TableNames()) {
    ExpectSameContent(*catalog.GetTable(name).ValueOrDie(),
                      *back.GetTable(name).ValueOrDie());
  }
}

TEST(CatalogSerde, FileRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  std::string path = ::testing::TempDir() + "/cods_serde_test.db";
  ASSERT_TRUE(SaveCatalog(catalog, path).ok());
  Catalog back = LoadCatalog(path).ValueOrDie();
  ExpectSameContent(*catalog.GetTable("R").ValueOrDie(),
                    *back.GetTable("R").ValueOrDie());
  std::remove(path.c_str());
}

TEST(CatalogSerde, MissingFileIsIOError) {
  EXPECT_TRUE(LoadCatalog("/nonexistent/db.cods").status().IsIOError());
}

TEST(CatalogSerde, RejectsBadMagicAndVersion) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  std::vector<uint8_t> image = SerializeCatalog(catalog);

  std::vector<uint8_t> bad_magic = image;
  bad_magic[0] ^= 1;
  EXPECT_TRUE(DeserializeCatalog(bad_magic).status().IsCorruption());

  std::vector<uint8_t> bad_version = image;
  bad_version[4] = 99;
  EXPECT_TRUE(DeserializeCatalog(bad_version).status().IsCorruption());

  std::vector<uint8_t> trailing = image;
  trailing.push_back(0);
  EXPECT_TRUE(DeserializeCatalog(trailing).status().IsCorruption());
}

// ---- Failure injection -------------------------------------------------------

TEST(CatalogSerde, EveryTruncationFailsCleanly) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  std::vector<uint8_t> image = SerializeCatalog(catalog);
  // Every strict prefix must fail with a Status (usually Corruption),
  // never crash. Step 7 keeps the loop fast while covering all regions.
  for (size_t cut = 0; cut < image.size(); cut += 7) {
    std::vector<uint8_t> prefix(image.begin(),
                                image.begin() + static_cast<ptrdiff_t>(cut));
    Result<Catalog> result = DeserializeCatalog(prefix);
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST(CatalogSerde, RandomBitFlipsNeverCrash) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(RandomFdTable(300, 17, 4)).ok());
  std::vector<uint8_t> image = SerializeCatalog(catalog);
  Rng rng(99);
  int parsed_ok = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutated = image;
    // Flip 1-3 random bits (skip the magic so we exercise deep paths).
    int flips = static_cast<int>(rng.Uniform(1, 3));
    for (int f = 0; f < flips; ++f) {
      size_t byte = static_cast<size_t>(
          rng.Uniform(8, static_cast<int64_t>(mutated.size()) - 1));
      mutated[byte] ^= static_cast<uint8_t>(1 << rng.Uniform(0, 7));
    }
    Result<Catalog> result = DeserializeCatalog(mutated);
    if (result.ok()) {
      // A flip may hit value payload bytes and still form a valid image;
      // invariants must hold regardless (ReadTable validates them).
      ++parsed_ok;
      for (const std::string& name : result.ValueOrDie().TableNames()) {
        EXPECT_TRUE(result.ValueOrDie()
                        .GetTable(name)
                        .ValueOrDie()
                        ->ValidateInvariants()
                        .ok());
      }
    }
  }
  // Most mutations must be caught by structural checks.
  EXPECT_LT(parsed_ok, 100);
}

// ---- Version 2: the checksummed checkpoint format ---------------------------

TEST(CatalogSerdeV2, RoundTripCarriesWalLsn) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  std::vector<uint8_t> v2 = SerializeCatalogV2(catalog, /*wal_lsn=*/4242);
  uint64_t lsn = 0;
  Catalog back = DeserializeCatalog(v2, &lsn).ValueOrDie();
  EXPECT_EQ(lsn, 4242u);
  ExpectSameContent(*catalog.GetTable("R").ValueOrDie(),
                    *back.GetTable("R").ValueOrDie());

  // A v1 image reads through the same entry point and reports LSN 0.
  std::vector<uint8_t> v1 = SerializeCatalog(catalog);
  lsn = 77;
  EXPECT_TRUE(DeserializeCatalog(v1, &lsn).ok());
  EXPECT_EQ(lsn, 0u);
  // The two formats differ exactly by the footer.
  EXPECT_EQ(v2.size(), v1.size() + kCodsFooterSize);
}

TEST(CatalogSerdeV2, EveryTruncationFailsCleanly) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  std::vector<uint8_t> image = SerializeCatalogV2(catalog, 9);
  // Every strict prefix — including cuts inside the footer — must fail
  // with a Status, never crash or parse.
  for (size_t cut = 0; cut < image.size(); cut += 7) {
    std::vector<uint8_t> prefix(image.begin(),
                                image.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DeserializeCatalog(prefix).ok())
        << "v2 prefix of " << cut << " bytes parsed";
  }
}

TEST(CatalogSerdeV2, SingleBitFlipsAlwaysDetected) {
  // The whole point of the v2 footer: unlike v1 (where a flip in value
  // payload bytes can survive structural checks), EVERY single-bit flip
  // anywhere in a v2 image — header, payload, footer — must error.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  std::vector<uint8_t> image = SerializeCatalogV2(catalog, 123);
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = image;
      bad[byte] ^= static_cast<uint8_t>(1u << bit);
      Result<Catalog> r = DeserializeCatalog(bad);
      EXPECT_FALSE(r.ok()) << "flip at byte " << byte << " bit " << bit
                           << " parsed";
    }
  }
}

TEST(SerdeAfterEvolution, EvolvedCatalogSurvivesPersistence) {
  // Evolution outputs share column storage across tables (e.g. a shallow
  // COPY aliases every column of the original); serialization must
  // materialize each table correctly and reload them as independent,
  // valid tables.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(Figure1TableR()).ok());
  auto copy = CopyTableOp(*catalog.GetTable("R").ValueOrDie(), "R2",
                          /*deep=*/false)
                  .ValueOrDie();
  ASSERT_TRUE(catalog.AddTable(copy).ok());
  auto dec = CodsDecompose(*catalog.GetTable("R").ValueOrDie(), "S",
                           {"Employee", "Skill"}, {}, "T",
                           {"Employee", "Address"}, {"Employee"})
                 .ValueOrDie();
  ASSERT_TRUE(catalog.AddTable(dec.s).ok());
  ASSERT_TRUE(catalog.AddTable(dec.t).ok());

  std::vector<uint8_t> image = SerializeCatalog(catalog);
  Catalog back = DeserializeCatalog(image).ValueOrDie();
  EXPECT_EQ(back.TableNames(),
            (std::vector<std::string>{"R", "R2", "S", "T"}));
  for (const std::string& name : back.TableNames()) {
    ExpectSameContent(*catalog.GetTable(name).ValueOrDie(),
                      *back.GetTable(name).ValueOrDie());
  }
}

}  // namespace
}  // namespace cods
