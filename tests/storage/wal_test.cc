// WAL edge cases: empty logs, group flush, page-straddling records,
// corrupt/torn tails (truncate-and-continue), checkpoint rotation, redo
// idempotence (recover-twice == recover-once) for KnnFile updates, and
// recovery's refusal of record types it does not replay.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/durability.h"
#include "fault_injection.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/knn_file.h"

namespace grnn::storage {
namespace {

using testing::CrashController;
using testing::CrashSurvival;
using testing::FaultAction;
using testing::FaultInjectingDiskManager;

constexpr size_t kPageSize = 256;

std::vector<uint8_t> Payload(size_t len, uint8_t seed) {
  std::vector<uint8_t> p(len);
  for (size_t i = 0; i < len; ++i) {
    p[i] = static_cast<uint8_t>(seed + i);
  }
  return p;
}

// Flips one byte at `region_off` within the record region (page 1+).
void CorruptRegionByte(DiskManager* disk, size_t region_off) {
  const size_t ps = disk->page_size();
  const PageId page = static_cast<PageId>(1 + region_off / ps);
  std::vector<uint8_t> img(ps, 0);
  ASSERT_TRUE(disk->ReadPage(page, img.data()).ok());
  img[region_off % ps] ^= 0xFF;
  ASSERT_TRUE(disk->WritePage(page, img.data()).ok());
  ASSERT_TRUE(disk->Sync().ok());
}

TEST(WalTest, CreateThenOpenEmptyLog) {
  MemoryDiskManager disk(kPageSize);
  {
    auto wal = Wal::Create(&disk);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal->next_lsn(), 1u);
    EXPECT_EQ(wal->durable_lsn(), 0u);
    EXPECT_TRUE(wal->recovered().empty());
  }
  auto reopened = Wal::Open(&disk);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->next_lsn(), 1u);
  EXPECT_EQ(reopened->durable_lsn(), 0u);
  EXPECT_TRUE(reopened->recovered().empty());
  EXPECT_FALSE(reopened->tail_truncated());
}

TEST(WalTest, OpenRejectsForeignDevices) {
  MemoryDiskManager empty(kPageSize);
  EXPECT_FALSE(Wal::Open(&empty).ok());

  MemoryDiskManager garbage(kPageSize);
  auto id = garbage.AllocatePage();
  ASSERT_TRUE(id.ok());
  auto junk = Payload(kPageSize, 0x5A);
  ASSERT_TRUE(garbage.WritePage(*id, junk.data()).ok());
  EXPECT_FALSE(Wal::Open(&garbage).ok());
}

TEST(WalTest, RoundTripsRecordsAcrossPageBoundaries) {
  MemoryDiskManager disk(kPageSize);
  auto wal = Wal::Create(&disk);
  ASSERT_TRUE(wal.ok());

  // Sizes chosen to pack, straddle one boundary, and span multiple
  // pages; one empty payload exercises the header-only frame.
  const std::vector<size_t> sizes = {10, 0, kPageSize, 3 * kPageSize + 7};
  std::vector<uint64_t> lsns;
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto payload = Payload(sizes[i], static_cast<uint8_t>(i));
    auto lsn = wal->Append(WalRecordType::kUpdate,
                           /*store_id=*/static_cast<uint32_t>(i),
                           payload);
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  EXPECT_EQ(lsns, (std::vector<uint64_t>{1, 2, 3, 4}));
  auto flushed = wal->Flush();
  ASSERT_TRUE(flushed.ok());
  EXPECT_TRUE(*flushed);  // I/O happened
  EXPECT_EQ(wal->durable_lsn(), 4u);
  // Second flush with nothing pending: no I/O.
  auto again = wal->Flush();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);

  auto reopened = Wal::Open(&disk);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened->tail_truncated());
  ASSERT_EQ(reopened->recovered().size(), sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    const WalRecord& rec = reopened->recovered()[i];
    EXPECT_EQ(rec.lsn, lsns[i]);
    EXPECT_EQ(rec.type, static_cast<uint16_t>(WalRecordType::kUpdate));
    EXPECT_EQ(rec.store_id, static_cast<uint32_t>(i));
    EXPECT_EQ(rec.payload, Payload(sizes[i], static_cast<uint8_t>(i)));
  }
  EXPECT_EQ(reopened->next_lsn(), 5u);
  EXPECT_EQ(reopened->durable_lsn(), 4u);
}

TEST(WalTest, UnflushedRecordsDoNotSurviveReopen) {
  MemoryDiskManager disk(kPageSize);
  auto wal = Wal::Create(&disk);
  ASSERT_TRUE(wal.ok());
  auto payload = Payload(64, 1);
  ASSERT_TRUE(wal->Append(WalRecordType::kUpdate, 0, payload).ok());

  auto reopened = Wal::Open(&disk);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->recovered().empty());
  EXPECT_EQ(reopened->next_lsn(), 1u);
}

TEST(WalTest, CorruptTailIsTruncatedAndTheLogContinues) {
  MemoryDiskManager disk(kPageSize);
  auto wal = Wal::Create(&disk);
  ASSERT_TRUE(wal.ok());
  const std::vector<size_t> sizes = {30, 30, 40};
  for (size_t i = 0; i < sizes.size(); ++i) {
    auto payload = Payload(sizes[i], static_cast<uint8_t>(i));
    ASSERT_TRUE(wal->Append(WalRecordType::kUpdate, 0, payload).ok());
  }
  ASSERT_TRUE(wal->Flush().ok());

  // Corrupt one payload byte of the THIRD record.
  const size_t rec3_off = 2 * kWalRecordHeaderBytes + 30 + 30;
  CorruptRegionByte(&disk, rec3_off + kWalRecordHeaderBytes + 5);

  auto reopened = Wal::Open(&disk);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->tail_truncated());
  ASSERT_EQ(reopened->recovered().size(), 2u);
  EXPECT_EQ(reopened->recovered()[1].payload, Payload(30, 1));
  EXPECT_EQ(reopened->next_lsn(), 3u);  // the torn lsn is reassigned

  // Truncate-and-continue: appends after the truncation point are
  // recovered cleanly. The new payload outsizes the torn frame so no
  // stale bytes trail it.
  auto fresh = Payload(150, 9);
  auto lsn = reopened->Append(WalRecordType::kUpdate, 7, fresh);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  ASSERT_TRUE(reopened->Flush().ok());

  auto final_open = Wal::Open(&disk);
  ASSERT_TRUE(final_open.ok());
  EXPECT_FALSE(final_open->tail_truncated());
  ASSERT_EQ(final_open->recovered().size(), 3u);
  EXPECT_EQ(final_open->recovered()[2].lsn, 3u);
  EXPECT_EQ(final_open->recovered()[2].store_id, 7u);
  EXPECT_EQ(final_open->recovered()[2].payload, fresh);
}

TEST(WalTest, CorruptMiddleRecordDropsTheSuffix) {
  MemoryDiskManager disk(kPageSize);
  auto wal = Wal::Create(&disk);
  ASSERT_TRUE(wal.ok());
  for (size_t i = 0; i < 3; ++i) {
    auto payload = Payload(30, static_cast<uint8_t>(i));
    ASSERT_TRUE(wal->Append(WalRecordType::kUpdate, 0, payload).ok());
  }
  ASSERT_TRUE(wal->Flush().ok());

  // A flipped byte in record 2's payload kills records 2 AND 3: the
  // log is a prefix, never a sieve.
  const size_t rec2_off = kWalRecordHeaderBytes + 30;
  CorruptRegionByte(&disk, rec2_off + kWalRecordHeaderBytes + 3);

  auto reopened = Wal::Open(&disk);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->tail_truncated());
  ASSERT_EQ(reopened->recovered().size(), 1u);
  EXPECT_EQ(reopened->recovered()[0].payload, Payload(30, 0));
}

TEST(WalTest, TornFlushTruncatesOnReopen) {
  MemoryDiskManager base(kPageSize);
  CrashController ctl;
  FaultInjectingDiskManager disk(&base, &ctl);
  auto wal = Wal::Create(&disk);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(disk.Sync().ok());  // settle the header onto the base

  auto payload = Payload(200, 3);
  ASSERT_TRUE(wal->Append(WalRecordType::kUpdate, 0, payload).ok());
  // Tear the first page write of the flush: header + part of the
  // payload reach the platter, the rest is lost with the crash.
  ctl.ArmAt(0, FaultAction::kTornWrite, CrashSurvival::kLoseUnsynced);
  auto flushed = wal->Flush();
  EXPECT_FALSE(flushed.ok());
  EXPECT_TRUE(ctl.crashed());

  auto reopened = Wal::Open(&base);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->tail_truncated());
  EXPECT_TRUE(reopened->recovered().empty());
  EXPECT_EQ(reopened->next_lsn(), 1u);

  // The survivor is fully usable: append and recover normally.
  auto big = Payload(230, 4);  // outsizes the torn frame
  ASSERT_TRUE(reopened->Append(WalRecordType::kUpdate, 1, big).ok());
  ASSERT_TRUE(reopened->Flush().ok());
  auto final_open = Wal::Open(&base);
  ASSERT_TRUE(final_open.ok());
  ASSERT_EQ(final_open->recovered().size(), 1u);
  EXPECT_EQ(final_open->recovered()[0].payload, big);
}

TEST(WalTest, CheckpointRotatesTheLog) {
  MemoryDiskManager disk(kPageSize);
  auto wal = Wal::Create(&disk);
  ASSERT_TRUE(wal.ok());
  for (size_t i = 0; i < 2; ++i) {
    auto payload = Payload(30, static_cast<uint8_t>(i));
    ASSERT_TRUE(wal->Append(WalRecordType::kUpdate, 0, payload).ok());
  }
  ASSERT_TRUE(wal->Flush().ok());
  ASSERT_TRUE(wal->Checkpoint().ok());
  EXPECT_EQ(wal->stats().checkpoints, 1u);

  // The rotated log is empty; the lsn space continues (records with
  // lsn below start_lsn are dead even though their bytes linger).
  auto reopened = Wal::Open(&disk);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->recovered().empty());
  EXPECT_FALSE(reopened->tail_truncated());
  EXPECT_EQ(reopened->next_lsn(), 3u);

  // New appends overwrite the record region from the start. The
  // payload outsizes both dead frames so the scan ends on zeros.
  auto fresh = Payload(300, 8);
  auto lsn = reopened->Append(WalRecordType::kUpdate, 4, fresh);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  ASSERT_TRUE(reopened->Flush().ok());
  auto final_open = Wal::Open(&disk);
  ASSERT_TRUE(final_open.ok());
  EXPECT_FALSE(final_open->tail_truncated());
  ASSERT_EQ(final_open->recovered().size(), 1u);
  EXPECT_EQ(final_open->recovered()[0].lsn, 3u);
  EXPECT_EQ(final_open->recovered()[0].type,
            static_cast<uint16_t>(WalRecordType::kUpdate));
  EXPECT_EQ(final_open->recovered()[0].payload, fresh);
}

TEST(WalTest, CheckpointWithPendingRecordsFails) {
  MemoryDiskManager disk(kPageSize);
  auto wal = Wal::Create(&disk);
  ASSERT_TRUE(wal.ok());
  auto payload = Payload(16, 1);
  ASSERT_TRUE(wal->Append(WalRecordType::kUpdate, 0, payload).ok());
  const Status st = wal->Checkpoint();
  EXPECT_FALSE(st.ok());
  ASSERT_TRUE(wal->Flush().ok());
  EXPECT_TRUE(wal->Checkpoint().ok());
}

// ---------------------------------------------------------------------
// Redo idempotence over real stores.

core::UpdateDescriptor InsertDesc(NodeId node, PointId point) {
  core::UpdateDescriptor d;
  d.op = core::UpdateDescriptor::Op::kInsertPoint;
  d.domain = 0;
  d.node = node;
  d.point = point;
  return d;
}

TEST(WalTest, KnnReplayIsIdempotentAcrossDoubleRecovery) {
  MemoryDiskManager data_base(kPageSize);
  MemoryDiskManager wal_disk(kPageSize);
  CrashController ctl;
  auto data_disk =
      std::make_unique<FaultInjectingDiskManager>(&data_base, &ctl);

  auto file = KnnFile::Create(data_disk.get(), /*num_nodes=*/20,
                              /*k=*/3);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(data_disk->Sync().ok());  // formatting is durable
  auto wal = Wal::Create(&wal_disk);
  ASSERT_TRUE(wal.ok());

  const std::vector<NnEntry> first = {{0, 1.5}, {2, 2.5}};
  const std::vector<NnEntry> second = {{4, 0.5}, {0, 1.5}, {2, 2.5}};
  const std::vector<NnEntry> other = {{4, 3.0}};
  {
    auto pool = std::make_unique<BufferPool>(data_disk.get(), 4);
    pool->AttachWal(&*wal);
    core::DurableKnnStore store(&*file, pool.get(), &*wal,
                                /*store_id=*/7);
    core::UpdateStats stats;
    ASSERT_TRUE(store.BeginUpdate(InsertDesc(5, 0)).ok());
    ASSERT_TRUE(store.Write(5, first).ok());
    ASSERT_TRUE(store.Write(6, other).ok());
    ASSERT_TRUE(store.CommitUpdate(&stats).ok());
    EXPECT_EQ(stats.log_records, 1u);
    EXPECT_GT(stats.log_bytes, 0u);
    ASSERT_TRUE(store.BeginUpdate(InsertDesc(5, 1)).ok());
    ASSERT_TRUE(store.Write(5, second).ok());
    ASSERT_TRUE(store.CommitUpdate(&stats).ok());
    EXPECT_EQ(stats.log_records, 2u);

    // Power failure: every dirty data page still sits in the pool (or
    // the drive cache) and is lost; the flushed log survives on its
    // own device.
    ctl.CrashNow(CrashSurvival::kLoseUnsynced);
  }
  data_disk.reset();

  auto replay_once = [&](size_t* pages_written) {
    auto reopened_file = KnnFile::Open(&data_base, file->first_page());
    ASSERT_TRUE(reopened_file.ok());
    auto reopened_wal = Wal::Open(&wal_disk);
    ASSERT_TRUE(reopened_wal.ok());
    ASSERT_EQ(reopened_wal->recovered().size(), 2u);
    auto result = core::RecoverStores(
        *reopened_wal, {{7u, {&*reopened_file, &data_base}}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->records_replayed, 2u);
    EXPECT_FALSE(result->tail_truncated);
    *pages_written = result->pages_written;

    BufferPool check_pool(&data_base, 4);
    std::vector<NnEntry> got;
    ASSERT_TRUE(reopened_file->Read(&check_pool, 5, &got).ok());
    EXPECT_EQ(got, second);  // the later record wins
    ASSERT_TRUE(reopened_file->Read(&check_pool, 6, &got).ok());
    EXPECT_EQ(got, other);
    ASSERT_TRUE(reopened_file->Read(&check_pool, 4, &got).ok());
    EXPECT_TRUE(got.empty());  // untouched slots stay empty
  };

  size_t pages_first = 0;
  replay_once(&pages_first);
  EXPECT_GT(pages_first, 0u);

  // Recover-twice == recover-once: the page-LSN filter rejects every
  // already-applied list.
  size_t pages_second = 0;
  replay_once(&pages_second);
  EXPECT_EQ(pages_second, 0u);
}

// The commit-path checkpoint policy: a DurableKnnStore constructed
// with a log-size threshold invokes CheckpointThrough when a commit
// leaves the log at or past it — the log shrinks back to empty, the
// data pages are already durable, and a reopened world needs no replay.
TEST(WalTest, CommitCheckpointsWhenLogCrossesThreshold) {
  MemoryDiskManager data_disk(kPageSize);
  MemoryDiskManager wal_disk(kPageSize);
  auto file = KnnFile::Create(&data_disk, /*num_nodes=*/20, /*k=*/3);
  ASSERT_TRUE(file.ok());
  auto wal = Wal::Create(&wal_disk);
  ASSERT_TRUE(wal.ok());
  BufferPool pool(&data_disk, 4);
  pool.AttachWal(&*wal);

  const std::vector<NnEntry> first = {{0, 1.5}, {2, 2.5}};
  const std::vector<NnEntry> second = {{4, 0.5}, {0, 1.5}};
  {
    // Threshold of one byte: every committed record crosses it, so
    // every commit ends with a freshly rotated (empty) log.
    core::DurableKnnStore store(&*file, &pool, &*wal, /*store_id=*/7,
                                /*checkpoint_threshold_bytes=*/1);
    core::UpdateStats stats;
    ASSERT_TRUE(store.BeginUpdate(InsertDesc(5, 0)).ok());
    ASSERT_TRUE(store.Write(5, first).ok());
    ASSERT_TRUE(store.CommitUpdate(&stats).ok());
    EXPECT_EQ(wal->log_bytes(), 0u);
    EXPECT_EQ(wal->stats().checkpoints, 1u);

    ASSERT_TRUE(store.BeginUpdate(InsertDesc(6, 1)).ok());
    ASSERT_TRUE(store.Write(6, second).ok());
    ASSERT_TRUE(store.CommitUpdate(&stats).ok());
    EXPECT_EQ(wal->log_bytes(), 0u);
    EXPECT_EQ(wal->stats().checkpoints, 2u);
  }
  {
    // Zero threshold disables the policy: the log grows across commits
    // until somebody checkpoints explicitly.
    core::DurableKnnStore store(&*file, &pool, &*wal, /*store_id=*/7);
    core::UpdateStats stats;
    ASSERT_TRUE(store.BeginUpdate(InsertDesc(7, 2)).ok());
    ASSERT_TRUE(store.Write(7, first).ok());
    ASSERT_TRUE(store.CommitUpdate(&stats).ok());
    EXPECT_GT(wal->log_bytes(), 0u);
    EXPECT_EQ(wal->stats().checkpoints, 2u);
    ASSERT_TRUE(CheckpointThrough(pool, *wal).ok());
    EXPECT_EQ(wal->log_bytes(), 0u);
  }

  // Recovery round-trips: the checkpoints made the data durable, so a
  // reopened log has nothing to replay and the lists read back intact.
  auto reopened_wal = Wal::Open(&wal_disk);
  ASSERT_TRUE(reopened_wal.ok());
  EXPECT_TRUE(reopened_wal->recovered().empty());
  auto reopened_file = KnnFile::Open(&data_disk, file->first_page());
  ASSERT_TRUE(reopened_file.ok());
  BufferPool check_pool(&data_disk, 4);
  std::vector<NnEntry> got;
  ASSERT_TRUE(reopened_file->Read(&check_pool, 5, &got).ok());
  EXPECT_EQ(got, first);
  ASSERT_TRUE(reopened_file->Read(&check_pool, 6, &got).ok());
  EXPECT_EQ(got, second);
  ASSERT_TRUE(reopened_file->Read(&check_pool, 7, &got).ok());
  EXPECT_EQ(got, first);
}

// A record of a type recovery does not replay — here type 2, the
// retired hub-label rewrite — must fail recovery loudly rather than be
// skipped: dropping a durable record would silently lose state.
TEST(WalTest, RecoveryRejectsRecordsOfUnknownType) {
  MemoryDiskManager wal_disk(kPageSize);
  {
    auto wal = Wal::Create(&wal_disk);
    ASSERT_TRUE(wal.ok());
    const auto type2 = static_cast<WalRecordType>(2);
    ASSERT_TRUE(wal->Append(type2, 9, Payload(40, 3)).ok());
    ASSERT_TRUE(wal->Flush().ok());
  }
  auto reopened = Wal::Open(&wal_disk);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->recovered().size(), 1u);
  EXPECT_EQ(reopened->recovered()[0].type, 2u);
  auto result = core::RecoverStores(*reopened, {});
  ASSERT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("unknown type 2"),
            std::string::npos)
      << result.status().ToString();
}

// Malformed payloads surface as Corruption from the decode layer, not
// as silent misreads.
TEST(WalTest, MalformedPayloadsAreRejectedByTheDecoder) {
  WalRecord rec;
  rec.lsn = 5;
  rec.type = static_cast<uint16_t>(WalRecordType::kUpdate);
  rec.store_id = 1;
  rec.payload = {1, 2, 3};  // far too short for a descriptor
  EXPECT_FALSE(core::DecodeUpdateRecord(rec).ok());

  // A valid encoding with trailing garbage is rejected too.
  core::UpdateDescriptor d;
  d.op = core::UpdateDescriptor::Op::kInsertPoint;
  d.node = 1;
  d.point = 0;
  rec.payload = core::EncodeUpdatePayload(d, {});
  ASSERT_TRUE(core::DecodeUpdateRecord(rec).ok());
  rec.payload.push_back(0);
  EXPECT_FALSE(core::DecodeUpdateRecord(rec).ok());
}

}  // namespace
}  // namespace grnn::storage
