// Storage engine (ISSUE 9): append-only segmented block log + state
// backends. Covers catalog semantics (upsert last-wins, tombstones,
// compaction), the memory/disk accounting parity that underpins the
// storage determinism contract, reopen persistence, and crash recovery
// from truncated or corrupted tails.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/block_log.hpp"
#include "storage/config.hpp"
#include "storage/crc32.hpp"
#include "storage/ledger_store.hpp"
#include "storage/state_backend.hpp"
#include "support/bytes.hpp"

namespace dlt::storage {
namespace {

Hash256 key_of(std::uint8_t tag) {
  Hash256 h;
  h[0] = tag;
  h[31] = static_cast<Byte>(tag ^ 0xFF);
  return h;
}

Bytes payload_of(std::size_t n, std::uint8_t fill) {
  return Bytes(n, fill);
}

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("dlt_storage_test_" + tag + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

BlockLog::Options options_for(StorageMode mode, const std::string& dir,
                              std::size_t segment_bytes = 1u << 20,
                              bool truncate = true) {
  BlockLog::Options o;
  o.mode = mode;
  o.dir = dir;
  o.segment_bytes = segment_bytes;
  o.truncate = truncate;
  return o;
}

// ------------------------------------------------------------ crc32

TEST(Crc32, KnownVectorAndIncremental) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE reflected, the check value).
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);

  std::uint32_t crc = crc32_init();
  crc = crc32_update(crc, ByteView{data.data(), 4});
  crc = crc32_update(crc, ByteView{data.data() + 4, 5});
  EXPECT_EQ(crc32_final(crc), 0xCBF43926u);

  EXPECT_EQ(crc32(Bytes{}), 0u);
}

/// Bit-at-a-time CRC-32, independent of the sliced tables.
std::uint32_t crc32_bitwise(ByteView data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (Byte b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedMatchesBitwiseReference) {
  Bytes buf(300 + 8);
  std::uint32_t x = 0x12345678u;
  for (Byte& b : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<Byte>(x);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const ByteView view{buf.data() + offset, len};
      const std::uint32_t want = crc32_bitwise(view);
      ASSERT_EQ(crc32(view), want) << "offset " << offset << " len " << len;
      for (std::size_t split : {std::size_t{1}, std::size_t{7},
                                std::size_t{9}, len / 2, len - len / 3}) {
        if (split > len) continue;
        std::uint32_t crc = crc32_init();
        crc = crc32_update(crc, view.subspan(0, split));
        crc = crc32_update(crc, view.subspan(split));
        ASSERT_EQ(crc32_final(crc), want)
            << "offset " << offset << " len " << len << " split " << split;
      }
    }
  }
}

// -------------------------------------------------------- block log

TEST(BlockLog, AppendReadEraseRoundtrip) {
  BlockLog log(options_for(StorageMode::kMemory, ""));
  const Hash256 a = key_of(1), b = key_of(2);

  log.append(RecordType::kHeader, a, payload_of(100, 0xAA));
  log.append(RecordType::kBody, a, payload_of(300, 0xBB));
  log.append(RecordType::kHeader, b, payload_of(100, 0xCC));

  EXPECT_TRUE(log.contains(RecordType::kHeader, a));
  EXPECT_TRUE(log.contains(RecordType::kBody, a));
  EXPECT_FALSE(log.contains(RecordType::kBody, b));
  EXPECT_EQ(log.live_records(), 3u);

  const auto body = log.read(RecordType::kBody, a);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, payload_of(300, 0xBB));

  EXPECT_TRUE(log.erase(RecordType::kBody, a));
  EXPECT_FALSE(log.erase(RecordType::kBody, a));  // already gone
  EXPECT_FALSE(log.read(RecordType::kBody, a).has_value());
  EXPECT_EQ(log.live_records(), 2u);
}

TEST(BlockLog, UpsertIsLastWinsAndDeadBytesAccrue) {
  BlockLog log(options_for(StorageMode::kMemory, ""));
  const Hash256 a = key_of(3);

  log.append(RecordType::kBlock, a, payload_of(64, 0x01));
  const std::uint64_t live_once = log.live_bytes();
  log.append(RecordType::kBlock, a, payload_of(64, 0x02));

  EXPECT_EQ(log.live_records(), 1u);
  EXPECT_EQ(log.live_bytes(), live_once);         // one live frame
  EXPECT_EQ(log.dead_bytes(), live_once);         // the shadowed frame
  EXPECT_EQ(*log.read(RecordType::kBlock, a), payload_of(64, 0x02));
}

TEST(BlockLog, RotationBySegmentBytesAndCompaction) {
  // 1 KiB segments; 200-byte payloads (245-byte frames) → 4 per segment.
  BlockLog log(options_for(StorageMode::kMemory, "", 1024));
  for (std::uint8_t i = 0; i < 12; ++i)
    log.append(RecordType::kSite, key_of(i), payload_of(200, i));
  EXPECT_EQ(log.segment_count(), 3u);

  // Erase 8 of 12, then compact: live set shrinks to one segment.
  for (std::uint8_t i = 0; i < 8; ++i)
    EXPECT_TRUE(log.erase(RecordType::kSite, key_of(i)));
  const std::uint64_t before = log.physical_bytes();
  const std::uint64_t reclaimed = log.compact();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(log.physical_bytes(), before - reclaimed);
  EXPECT_EQ(log.segment_count(), 1u);
  EXPECT_EQ(log.live_records(), 4u);
  for (std::uint8_t i = 8; i < 12; ++i)
    EXPECT_EQ(*log.read(RecordType::kSite, key_of(i)), payload_of(200, i));
}

TEST(BlockLog, ForEachVisitsLiveRecordsInAppendOrder) {
  BlockLog log(options_for(StorageMode::kMemory, ""));
  log.append(RecordType::kBlock, key_of(1), payload_of(8, 1));
  log.append(RecordType::kBlock, key_of(2), payload_of(8, 2));
  log.append(RecordType::kBlock, key_of(3), payload_of(8, 3));
  log.append(RecordType::kBlock, key_of(1), payload_of(8, 9));  // re-append
  log.erase(RecordType::kBlock, key_of(2));

  std::vector<std::uint8_t> seen;
  log.for_each([&](RecordType type, const Hash256& key, ByteView payload) {
    EXPECT_EQ(type, RecordType::kBlock);
    seen.push_back(payload[0]);
    (void)key;
  });
  // key 3 first (older live frame), then key 1's re-append.
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{3, 9}));
}

TEST(BlockLog, MemoryAndDiskAccountingIdentical) {
  ScratchDir scratch("parity");
  BlockLog mem(options_for(StorageMode::kMemory, "", 2048));
  BlockLog disk(options_for(StorageMode::kDisk, scratch.str(), 2048));

  const auto drive = [](BlockLog& log) {
    for (std::uint8_t i = 0; i < 20; ++i)
      log.append(RecordType::kHeader, key_of(i), payload_of(100 + i * 7, i));
    for (std::uint8_t i = 0; i < 20; i += 3)
      log.erase(RecordType::kHeader, key_of(i));
    for (std::uint8_t i = 0; i < 5; ++i)  // upserts
      log.append(RecordType::kHeader, key_of(i + 1), payload_of(50, 0xEE));
  };
  drive(mem);
  drive(disk);

  EXPECT_EQ(mem.physical_bytes(), disk.physical_bytes());
  EXPECT_EQ(mem.live_bytes(), disk.live_bytes());
  EXPECT_EQ(mem.dead_bytes(), disk.dead_bytes());
  EXPECT_EQ(mem.segment_count(), disk.segment_count());
  EXPECT_EQ(mem.live_records(), disk.live_records());
  EXPECT_EQ(mem.compact(), disk.compact());
  EXPECT_EQ(mem.physical_bytes(), disk.physical_bytes());

  // Disk physical accounting equals real file bytes (after flush).
  disk.sync();
  std::uint64_t file_bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(scratch.path))
    if (e.path().extension() == ".dlog") file_bytes += e.file_size();
  EXPECT_EQ(disk.physical_bytes(), file_bytes);
}

TEST(BlockLog, ReopenRecoversCatalogAndTombstones) {
  ScratchDir scratch("reopen");
  std::uint64_t physical = 0;
  {
    BlockLog log(options_for(StorageMode::kDisk, scratch.str(), 1024));
    for (std::uint8_t i = 0; i < 10; ++i)
      log.append(RecordType::kBlock, key_of(i), payload_of(120, i));
    log.append(RecordType::kBlock, key_of(4), payload_of(60, 0x44));
    log.erase(RecordType::kBlock, key_of(7));
    log.sync();
    physical = log.physical_bytes();
  }
  BlockLog log(options_for(StorageMode::kDisk, scratch.str(), 1024, false));
  EXPECT_EQ(log.physical_bytes(), physical);
  EXPECT_EQ(log.recovered_records(), 9u);
  EXPECT_EQ(log.truncated_tail_bytes(), 0u);
  EXPECT_FALSE(log.contains(RecordType::kBlock, key_of(7)));
  EXPECT_EQ(*log.read(RecordType::kBlock, key_of(4)), payload_of(60, 0x44));
  EXPECT_EQ(*log.read(RecordType::kBlock, key_of(9)), payload_of(120, 9));

  // The reopened log keeps appending where it left off.
  log.append(RecordType::kBlock, key_of(42), payload_of(10, 0xAB));
  EXPECT_EQ(*log.read(RecordType::kBlock, key_of(42)), payload_of(10, 0xAB));
}

TEST(BlockLog, TruncatedTailIsDroppedOnReopen) {
  ScratchDir scratch("torn");
  std::string last_segment;
  {
    BlockLog log(options_for(StorageMode::kDisk, scratch.str()));
    for (std::uint8_t i = 0; i < 6; ++i)
      log.append(RecordType::kSite, key_of(i), payload_of(100, i));
    log.sync();
    last_segment = scratch.str() + "/seg-000000.dlog";
  }
  // Kill the writer mid-append: chop 30 bytes off the last frame.
  const std::uint64_t size = std::filesystem::file_size(last_segment);
  std::filesystem::resize_file(last_segment, size - 30);

  BlockLog log(options_for(StorageMode::kDisk, scratch.str(), 1u << 20,
                           false));
  EXPECT_EQ(log.recovered_records(), 5u);  // the torn 6th is gone
  EXPECT_GT(log.truncated_tail_bytes(), 0u);
  EXPECT_FALSE(log.contains(RecordType::kSite, key_of(5)));
  for (std::uint8_t i = 0; i < 5; ++i)
    EXPECT_EQ(*log.read(RecordType::kSite, key_of(i)), payload_of(100, i));

  // Appending after recovery lands on a clean frame boundary.
  log.append(RecordType::kSite, key_of(5), payload_of(100, 5));
  log.sync();
  EXPECT_EQ(std::filesystem::file_size(last_segment), log.physical_bytes());
}

TEST(BlockLog, TornCrcIsDroppedOnReopen) {
  ScratchDir scratch("crc");
  {
    BlockLog log(options_for(StorageMode::kDisk, scratch.str()));
    for (std::uint8_t i = 0; i < 4; ++i)
      log.append(RecordType::kDelta, key_of(i), payload_of(80, i));
    log.sync();
  }
  // Flip one payload byte inside the *last* frame (offset −1 from EOF).
  const std::string seg = scratch.str() + "/seg-000000.dlog";
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x5A');
  }
  BlockLog log(options_for(StorageMode::kDisk, scratch.str(), 1u << 20,
                           false));
  EXPECT_EQ(log.recovered_records(), 3u);
  EXPECT_GT(log.truncated_tail_bytes(), 0u);
  EXPECT_FALSE(log.contains(RecordType::kDelta, key_of(3)));
}

// --------------------------------------------------- state backends

StorageConfig config_for(StorageMode mode) {
  StorageConfig c;
  c.mode = mode;
  return c;
}

TEST(StateBackend, PutGetEraseOnBothKinds) {
  ScratchDir scratch("state");
  for (const StorageMode mode : {StorageMode::kMemory, StorageMode::kDisk}) {
    auto state = make_state_backend(config_for(mode), scratch.str(), true);
    const Hash256 a = key_of(1), b = key_of(2);

    state->put(a, payload_of(40, 0x11));
    state->put(b, payload_of(40, 0x22));
    state->put(a, payload_of(20, 0x33));  // upsert shrinks
    EXPECT_EQ(state->entry_count(), 2u);
    EXPECT_EQ(*state->get(a), payload_of(20, 0x33));
    EXPECT_TRUE(state->contains(b));

    EXPECT_TRUE(state->erase(b));
    EXPECT_FALSE(state->erase(b));
    EXPECT_FALSE(state->get(b).has_value());
    EXPECT_EQ(state->entry_count(), 1u);
  }
}

TEST(StateBackend, MemoryAndMmapAccountingIdentical) {
  ScratchDir scratch("state_parity");
  auto mem = make_state_backend(config_for(StorageMode::kMemory), "", true);
  auto disk =
      make_state_backend(config_for(StorageMode::kDisk), scratch.str(), true);

  const auto drive = [](StateBackend& s) {
    for (std::uint8_t i = 0; i < 30; ++i)
      s.put(key_of(i), payload_of(20 + i * 3, i));
    for (std::uint8_t i = 0; i < 30; i += 4) s.erase(key_of(i));
    for (std::uint8_t i = 1; i < 10; i += 2)
      s.put(key_of(i), payload_of(15, 0x77));
  };
  drive(*mem);
  drive(*disk);

  EXPECT_EQ(mem->physical_bytes(), disk->physical_bytes());
  EXPECT_EQ(mem->live_bytes(), disk->live_bytes());
  EXPECT_EQ(mem->entry_count(), disk->entry_count());
  EXPECT_EQ(mem->compact(), disk->compact());
  EXPECT_EQ(mem->physical_bytes(), disk->physical_bytes());

  // Same live contents in the same sequence order.
  std::vector<std::pair<Hash256, Bytes>> from_mem, from_disk;
  mem->for_each([&](const Hash256& k, ByteView v) {
    from_mem.emplace_back(k, Bytes(v.begin(), v.end()));
  });
  disk->for_each([&](const Hash256& k, ByteView v) {
    from_disk.emplace_back(k, Bytes(v.begin(), v.end()));
  });
  EXPECT_EQ(from_mem, from_disk);
}

TEST(StateBackend, MmapReopenAndTornTail) {
  ScratchDir scratch("state_reopen");
  std::uint64_t physical = 0;
  {
    auto state =
        make_state_backend(config_for(StorageMode::kDisk), scratch.str(),
                           true);
    for (std::uint8_t i = 0; i < 8; ++i)
      state->put(key_of(i), payload_of(64, i));
    state->erase(key_of(2));
    state->sync();
    physical = state->physical_bytes();
  }
  // Destructor truncated the arena to its used length.
  const std::string arena = scratch.str() + "/state.arena";
  EXPECT_EQ(std::filesystem::file_size(arena), physical);

  {
    auto state = make_state_backend(config_for(StorageMode::kDisk),
                                    scratch.str(), false);
    EXPECT_EQ(state->recovered_entries(), 7u);
    EXPECT_EQ(state->physical_bytes(), physical);
    EXPECT_FALSE(state->contains(key_of(2)));
    EXPECT_EQ(*state->get(key_of(7)), payload_of(64, 7));
  }

  // Torn tail: chop off the erase marker, all of put(7), and 10 bytes
  // into put(6). Reopen stops at the torn put(6) — so 6..7 are gone and
  // the erase of 2 never happened.
  const std::uint64_t chop = StateBackend::frame_size(0) +
                             StateBackend::frame_size(64) + 10;
  std::filesystem::resize_file(arena,
                               std::filesystem::file_size(arena) - chop);
  auto state = make_state_backend(config_for(StorageMode::kDisk),
                                  scratch.str(), false);
  EXPECT_EQ(state->recovered_entries(), 6u);
  EXPECT_FALSE(state->contains(key_of(6)));
  EXPECT_FALSE(state->contains(key_of(7)));
  EXPECT_TRUE(state->contains(key_of(2)));  // its erase marker was torn
  EXPECT_EQ(*state->get(key_of(5)), payload_of(64, 5));
}

// ------------------------------------------------------ ledger store

TEST(LedgerStore, DiskInstanceDirectoriesAndGauges) {
  ScratchDir scratch("store");
  StorageConfig config;
  config.mode = StorageMode::kDisk;
  config.path = scratch.str();

  obs::MetricsRegistry registry;
  LedgerStore store(config, "chain-s7/node0");
  store.attach_probe(obs::Probe{&registry, nullptr, "node.0."});

  store.log().append(RecordType::kHeader, key_of(1), payload_of(100, 1));
  store.state().put(key_of(2), payload_of(50, 2));
  store.note_pruned(123);
  store.commit();

  EXPECT_TRUE(std::filesystem::exists(scratch.path / "chain-s7" / "node0" /
                                      "seg-000000.dlog"));
  EXPECT_EQ(registry.gauge("node.0.storage.log_bytes").value(),
            static_cast<double>(store.log_bytes()));
  EXPECT_EQ(registry.gauge("node.0.storage.state_bytes").value(),
            static_cast<double>(store.state_bytes()));
  EXPECT_EQ(registry.gauge("node.0.storage.segments").value(), 1.0);
  EXPECT_EQ(registry.gauge("node.0.storage.pruned_bytes").value(), 123.0);
}

TEST(LedgerStore, MemoryModeTouchesNoFilesystem) {
  StorageConfig config;  // defaults to memory
  LedgerStore store(config, "lattice-s1/node3");
  EXPECT_FALSE(store.disk());
  EXPECT_TRUE(store.dir().empty());
  store.log().append(RecordType::kBlock, key_of(9), payload_of(10, 9));
  EXPECT_GT(store.log_bytes(), 0u);
}

TEST(StorageConfig, EnvOverrideParsing) {
  {
    StorageConfig c;
    ::setenv("DLT_STORAGE", "disk:/tmp/dlt-env-test", 1);
    apply_env_storage(c);
    EXPECT_EQ(c.mode, StorageMode::kDisk);
    EXPECT_EQ(c.path, "/tmp/dlt-env-test");
  }
  {
    StorageConfig c;
    ::setenv("DLT_STORAGE", "disk", 1);
    apply_env_storage(c);
    EXPECT_EQ(c.mode, StorageMode::kDisk);
    EXPECT_TRUE(c.path.empty());
  }
  {
    StorageConfig c;
    c.mode = StorageMode::kDisk;
    ::setenv("DLT_STORAGE", "memory", 1);
    apply_env_storage(c);
    EXPECT_EQ(c.mode, StorageMode::kMemory);
  }
  {
    StorageConfig c;
    ::setenv("DLT_STORAGE", "floppy", 1);
    apply_env_storage(c);
    EXPECT_EQ(c.mode, StorageMode::kMemory);  // invalid → untouched
  }
  ::unsetenv("DLT_STORAGE");
}

}  // namespace
}  // namespace dlt::storage
