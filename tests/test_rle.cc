// Tests for images written while columns could be declared SORTED and
// stored run-length encoded. Such images (and WALs that logged SORTED)
// must still load: the SORTED flag is ignored, each RLE payload is
// validated and re-encoded into per-value bitmaps, and the loaded table
// equals the same rows stored plainly. The fixtures below are images
// and a WAL written by the last build that had the RLE encoding.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "durability/checkpoint.h"
#include "durability/db.h"
#include "gtest/gtest.h"
#include "storage/serde.h"
#include "test_util.h"

namespace cods {
namespace {

using ::cods::testing::LegacyTableImage;
using ::cods::testing::MakeTable;

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr,
                                                 16)));
  }
  return out;
}

// L(k INT64 SORTED, v STRING, w DOUBLE SORTED), 10 rows, as a v1 image
// (no footer) and as a v3 image with WAL LSN 7.
const char* const kLegacyV1Hex =
    "53444f430100000001000000010000004c0a000000000000000000000003000000010000"
    "006b0001010000007602000100000077010100010a000000000000000400000001000000"
    "000000000001010000000000000001020000000000000001030000000000000004000000"
    "000000000300000000000000010000000300000000000000020000000300000000000000"
    "03000000010000000000000002000a000000000000000200000003010000006103010000"
    "0062020000000a0000000000000055010000000000000a000000000a00000000000000aa"
    "020000000000000a0000000001010a000000000000000300000002000000000000000002"
    "000000000000e03f02000000000000f03f03000000000000000400000000000000010000"
    "000400000000000000020000000200000000000000";
const char* const kLegacyV3Hex =
    "53444f430300000001000000010000004c0a000000000000000000000003000000010000"
    "006b0001010000007602000100000077010100010a000000000000000400000001000000"
    "000000000001010000000000000001020000000000000001030000000000000004000000"
    "000000000300000000000000010000000300000000000000020000000300000000000000"
    "03000000010000000000000002000a000000000000000200000003010000006103010000"
    "006202000000020100000055010000000000000201000000aa0200000000000001010a00"
    "0000000000000300000002000000000000000002000000000000e03f02000000000000f0"
    "3f0300000000000000040000000000000001000000040000000000000002000000020000"
    "00000000000700000000000000cda82763";

// P(id, grp, c, name, x) KEY(id), 64 rows, no SORTED column: a v3 image
// with WAL LSN 11 whose columns hold array (id), bitset (grp) and WAH
// (c, name, x) containers.
const char* const kSortedFreeV3Hex =
    "53444f430300000001000000010000005040000000000000000100000002000000696405"
    "000000020000006964000003000000677270000001000000630000040000006e616d6502"
    "000100000078010000004000000000000000400000000100000000000000000101000000"
    "000000000102000000000000000103000000000000000104000000000000000105000000"
    "000000000106000000000000000107000000000000000108000000000000000109000000"
    "00000000010a00000000000000010b00000000000000010c00000000000000010d000000"
    "00000000010e00000000000000010f000000000000000110000000000000000111000000"
    "000000000112000000000000000113000000000000000114000000000000000115000000"
    "000000000116000000000000000117000000000000000118000000000000000119000000"
    "00000000011a00000000000000011b00000000000000011c00000000000000011d000000"
    "00000000011e00000000000000011f000000000000000120000000000000000121000000"
    "000000000122000000000000000123000000000000000124000000000000000125000000"
    "000000000126000000000000000127000000000000000128000000000000000129000000"
    "00000000012a00000000000000012b00000000000000012c00000000000000012d000000"
    "00000000012e00000000000000012f000000000000000130000000000000000131000000"
    "000000000132000000000000000133000000000000000134000000000000000135000000"
    "000000000136000000000000000137000000000000000138000000000000000139000000"
    "00000000013a00000000000000013b00000000000000013c00000000000000013d000000"
    "00000000013e00000000000000013f000000000000004000000000010000000000000000"
    "010000000100000000010000000200000000010000000300000000010000000400000000"
    "010000000500000000010000000600000000010000000700000000010000000800000000"
    "010000000900000000010000000a00000000010000000b00000000010000000c00000000"
    "010000000d00000000010000000e00000000010000000f00000000010000001000000000"
    "010000001100000000010000001200000000010000001300000000010000001400000000"
    "010000001500000000010000001600000000010000001700000000010000001800000000"
    "010000001900000000010000001a00000000010000001b00000000010000001c00000000"
    "010000001d00000000010000001e00000000010000001f00000000010000002000000000"
    "010000002100000000010000002200000000010000002300000000010000002400000000"
    "010000002500000000010000002600000000010000002700000000010000002800000000"
    "010000002900000000010000002a00000000010000002b00000000010000002c00000000"
    "010000002d00000000010000002e00000000010000002f00000000010000003000000000"
    "010000003100000000010000003200000000010000003300000000010000003400000000"
    "010000003500000000010000003600000000010000003700000000010000003800000000"
    "010000003900000000010000003a00000000010000003b00000000010000003c00000000"
    "010000003d00000000010000003e00000000010000003f00000000004000000000000000"
    "020000000100000000000000000101000000000000000200000002010000005555555555"
    "5555550201000000aaaaaaaaaaaaaaaa0000400000000000000008000000010000000000"
    "000000010100000000000000010200000000000000010300000000000000010400000000"
    "000000010500000000000000010600000000000000010700000000000000080000000140"
    "0000000000000000000000000000000101000000ff000000000000000140000000000000"
    "000000000000000000010100000000ff0000000000000140000000000000000000000000"
    "00000001010000000000ff00000000000140000000000000000000000000000000010100"
    "0000000000ff000000000140000000000000000000000000000000010100000000000000"
    "ff000000014000000000000000000000000000000001010000000000000000ff00000140"
    "0000000000000000000000000000000101000000000000000000ff000140000000000000"
    "0001000000000000000101000000000000000000007f0200400000000000000007000000"
    "03020000006e3003020000006e3103020000006e3203020000006e3303020000006e3403"
    "020000006e3503020000006e360700000001400000000000000001000000000000000101"
    "000000814020100804020101400000000000000000000000000000000101000000028140"
    "201008040201400000000000000000000000000000000101000000040281402010080401"
    "400000000000000000000000000000000101000000080402814020100801400000000000"
    "000000000000000000000101000000100804028140201001400000000000000000000000"
    "000000000101000000201008040281402001400000000000000000000000000000000101"
    "0000004020100804028140010040000000000000000500000002000000000000f8bf0200"
    "0000000000e0bf02000000000000e03f02000000000000f83f0200000000000004400500"
    "000001400000000000000000000000000000000101000000218410420821841001400000"
    "000000000000000000000000000101000000420821841042082101400000000000000000"
    "000000000000000101000000841042082184104201400000000000000001000000000000"
    "000101000000082184104208210401400000000000000000000000000000000101000000"
    "10420821841042080b00000000000000259a6eb9";

// A WAL holding one committed script: CREATE TABLE T (c DOUBLE SORTED).
const char* const kSortedCreateWalHex =
    "090000003866541e0100000000000000012d000000cb4a39d60200000000000000022000"
    "0000435245415445205441424c45205420286320444f55424c4520534f52544544290d00"
    "00008fdb919003000000000000000301000000";

// The rows of L without any SORTED declaration.
std::shared_ptr<const Table> PlainL() {
  std::vector<Row> rows;
  for (int64_t r = 0; r < 10; ++r) {
    rows.push_back({Value(r / 3), Value(std::string(1, "ab"[r % 2])),
                    Value(0.5 * static_cast<double>(r / 4))});
  }
  return MakeTable("L",
                   Schema({{"k", DataType::kInt64},
                           {"v", DataType::kString},
                           {"w", DataType::kDouble}}),
                   rows);
}

std::shared_ptr<const Table> SortedFreeP() {
  std::vector<Row> rows;
  for (int64_t r = 0; r < 64; ++r) {
    rows.push_back({Value(r), Value(r % 2), Value(r / 8),
                    Value("n" + std::to_string(r % 7)),
                    Value(static_cast<double>(r % 5) - 1.5)});
  }
  return MakeTable("P",
                   Schema({{"id", DataType::kInt64},
                           {"grp", DataType::kInt64},
                           {"c", DataType::kInt64},
                           {"name", DataType::kString},
                           {"x", DataType::kDouble}},
                          {"id"}),
                   rows);
}

Catalog CatalogOf(std::shared_ptr<const Table> table) {
  Catalog catalog;
  CODS_CHECK_OK(catalog.AddTable(std::move(table)));
  return catalog;
}

TEST(LegacyImage, V1AndV3RleImagesLoadAsPlainTables) {
  auto plain = PlainL();
  const Catalog plain_catalog = CatalogOf(plain);
  for (uint32_t version : {kCodsFileVersion, kCodsFileVersionV3}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::vector<uint8_t> image = FromHex(
        version == kCodsFileVersion ? kLegacyV1Hex : kLegacyV3Hex);
    uint64_t lsn = 99;
    Result<Catalog> loaded = DeserializeCatalog(image, &lsn);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(lsn, version == kCodsFileVersion ? 0u : 7u);
    auto table = loaded->GetTable("L").ValueOrDie();
    EXPECT_TRUE(table->ValidateInvariants().ok());
    EXPECT_EQ(table->schema().ToString(), plain->schema().ToString());
    EXPECT_EQ(table->Materialize(), plain->Materialize());  // row for row
    // Re-saved, the image is the plain table's: sorted flags and column
    // encoding bytes are 0, and the bitmaps are the ones FromVids builds.
    if (version == kCodsFileVersion) {
      EXPECT_EQ(SerializeCatalog(*loaded), SerializeCatalog(plain_catalog));
    } else {
      EXPECT_EQ(SerializeCatalogV3(*loaded, 7),
                SerializeCatalogV3(plain_catalog, 7));
    }
  }
}

TEST(LegacyImage, TestHelperWritesTheLegacyLayout) {
  // LegacyTableImage (test_util.h), which the SORTED-parity tests load,
  // reproduces the older writer byte for byte.
  BinaryWriter header;
  header.U32(kCodsFileMagic);
  header.U32(kCodsFileVersion);
  header.U32(1);  // table count
  std::vector<uint8_t> image = header.TakeBuffer();
  const std::vector<uint8_t> table = LegacyTableImage(*PlainL(), {"k", "w"});
  image.insert(image.end(), table.begin(), table.end());
  EXPECT_EQ(image, FromHex(kLegacyV1Hex));
}

TEST(LegacyImage, SortedFreeImagesStayByteIdentical) {
  const std::vector<uint8_t> fixture = FromHex(kSortedFreeV3Hex);
  uint64_t lsn = 0;
  Result<Catalog> loaded = DeserializeCatalog(fixture, &lsn);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(lsn, 11u);
  EXPECT_EQ(SerializeCatalogV3(*loaded, lsn), fixture);
  // Built afresh, the same rows serialize to the same bytes.
  EXPECT_EQ(SerializeCatalogV3(CatalogOf(SortedFreeP()), 11), fixture);
}

TEST(LegacyImage, WalWithSortedColumnReplays) {
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "cods_legacy_sorted_wal";
  ASSERT_TRUE(env->CreateDirIfMissing(dir).ok());
  for (const char* name : {kWalFileName, kCheckpointFileName}) {
    const std::string path = dir + "/" + name;
    if (env->FileExists(path)) ASSERT_TRUE(env->DeleteFile(path).ok());
  }
  ASSERT_TRUE(WriteFile(env, dir + "/" + kWalFileName,
                        FromHex(kSortedCreateWalHex))
                  .ok());
  auto db = DurableDb::Open(env, dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->GetStats().replayed_scripts, 1u);
  auto table = (*db)->GetSnapshot().store()->GetTable("T");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->schema().ToString(), "(c DOUBLE)");
  EXPECT_EQ((*table)->rows(), 0u);
}

// ---- The RLE payload loader ------------------------------------------------

// A legacy column image: `rows` rows, an INT64 dictionary 0..distinct-1,
// and `runs` as its RLE payload, with `run_count` written in place of
// runs.size() when given.
std::vector<uint8_t> RleColumnImage(
    uint64_t rows, int64_t distinct,
    const std::vector<std::pair<uint32_t, uint64_t>>& runs,
    std::optional<uint32_t> run_count = std::nullopt) {
  Dictionary dict;
  for (int64_t v = 0; v < distinct; ++v) dict.GetOrInsert(Value(v));
  BinaryWriter w;
  w.U8(static_cast<uint8_t>(DataType::kInt64));
  w.U8(1);  // encoding: RLE
  w.U64(rows);
  WriteDictionary(dict, &w);
  w.U32(run_count.value_or(static_cast<uint32_t>(runs.size())));
  for (const auto& [vid, length] : runs) {
    w.U32(vid);
    w.U64(length);
  }
  return w.TakeBuffer();
}

Status LoadRleColumn(const std::vector<uint8_t>& image, uint32_t version) {
  BinaryReader in(image);
  return ReadColumn(&in, version).status();
}

TEST(LegacyRle, RunLengthsOverflowingU64AreCorruption) {
  // rows = 3 and runs (0, 2^64 - 1), (1, 4): the lengths wrap to 3.
  const std::vector<uint8_t> image = RleColumnImage(
      3, 2, {{0, std::numeric_limits<uint64_t>::max()}, {1, 4}});
  for (uint32_t version : {kCodsFileVersion, kCodsFileVersionV3}) {
    EXPECT_TRUE(LoadRleColumn(image, version).IsCorruption()) << version;
  }
}

TEST(LegacyRle, MalformedRunListsAreCorruption) {
  struct Case {
    const char* what;
    std::vector<uint8_t> image;
  };
  const std::vector<Case> cases = {
      {"vid outside dictionary", RleColumnImage(4, 2, {{0, 2}, {2, 2}})},
      {"zero-length run", RleColumnImage(4, 2, {{0, 4}, {1, 0}})},
      {"implausible run count",
       RleColumnImage(4, 2, {{0, 4}}, (1u << 30) + 1)},
      {"runs short of rows", RleColumnImage(5, 2, {{0, 2}, {1, 2}})},
      {"runs past rows", RleColumnImage(3, 2, {{0, 2}, {1, 2}})},
      {"truncated run list", RleColumnImage(4, 2, {{0, 4}}, 2)},
  };
  for (const Case& c : cases) {
    Status st = LoadRleColumn(c.image, kCodsFileVersionV3);
    EXPECT_TRUE(st.IsCorruption()) << c.what << ": " << st.ToString();
  }
}

TEST(LegacyRle, RunsReencodeToTheBitmapsFromVidsBuilds) {
  // Random run lists — adjacent equal runs, values with no run, runs
  // spanning and splitting 64-row groups — load into exactly the column
  // FromVids builds from the decoded rows.
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t distinct = rng.Uniform(1, 6);
    std::vector<std::pair<uint32_t, uint64_t>> runs;
    std::vector<Vid> vids;
    const int64_t num_runs = rng.Uniform(0, 60);
    for (int64_t i = 0; i < num_runs; ++i) {
      const auto vid = static_cast<uint32_t>(rng.Uniform(0, distinct - 1));
      const auto length = static_cast<uint64_t>(
          rng.NextBool(0.2) ? rng.Uniform(64, 300) : rng.Uniform(1, 20));
      runs.emplace_back(vid, length);
      vids.insert(vids.end(), length, vid);
    }
    const std::vector<uint8_t> image =
        RleColumnImage(vids.size(), distinct, runs);
    BinaryReader in(image);
    auto loaded = ReadColumn(&in, kCodsFileVersionV3);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const Column& col = **loaded;
    ASSERT_TRUE(col.ValidateInvariants().ok());
    auto expected = Column::FromVids(DataType::kInt64, col.dict(), vids);
    EXPECT_EQ(col.DecodeVids(), vids);
    for (Vid v = 0; v < col.distinct_count(); ++v) {
      EXPECT_TRUE(col.bitmap(v) == expected->bitmap(v))
          << "trial " << trial << " vid " << v;
    }
  }
}

}  // namespace
}  // namespace cods
