// Kill-and-resume end-to-end: the tentpole guarantee of src/ckpt.
//
// A campaign that is checkpointed, killed (a real SIGKILL through fork —
// no destructors, no atexit, exactly like a preempted batch job), and
// resumed in a fresh process must produce byte-identical final reports,
// metrics, and loss accounting to a campaign that never died — at any
// --jobs on either side of the cut. The in-process matrix sweeps the
// cut-point × thread-count space; the fork test pins the real kill.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <iterator>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "ckpt/campaign.hpp"
#include "ckpt/state.hpp"
#include "support/report_store.hpp"
#include "telemetry/export.hpp"

namespace wlm {
namespace {

sim::WorldConfig e2e_config(int threads) {
  sim::WorldConfig config;
  config.fleet.epoch = deploy::Epoch::kJan2015;
  config.fleet.network_count = 6;
  config.fleet.seed = 2015;
  config.seed = 2016;
  config.client_scale = 0.25;
  config.threads = threads;
  config.faults.outage_rate_per_week = 2.0;
  config.faults.outage_mean_hours = 12.0;
  config.faults.reboot_rate_per_week = 1.0;
  config.faults.corrupt_probability = 0.01;
  config.faults.tunnel_queue_limit = 128;
  return config;
}

// Same campaign with the mobility walk enabled: checkpoints now carry the
// v5 shard mobility block (walk rng, per-client motion state, pending
// handoffs) and the resume must reproduce the walk's roaming byte-for-byte.
sim::WorldConfig mobile_e2e_config(int threads) {
  sim::WorldConfig config = e2e_config(threads);
  config.mobility.enabled = true;
  config.mobility.steps_per_week = 48;  // enough churn, tier-1 wall clock
  return config;
}

// Same campaign relaying over multi-hop mesh backhaul: checkpoints now
// carry the v6 shard mesh block (mesh rng, the phase's drifted routing
// table, per-AP relay busy horizons, partition-drop count) and the resume
// must relay the remaining phases over the identical topology. The fault
// mix keeps gateway outages in play, so lost_mesh_partition accounting
// crosses the cut too.
sim::WorldConfig mesh_e2e_config(int threads) {
  sim::WorldConfig config = e2e_config(threads);
  config.mesh.mesh_fraction = 0.5;
  config.mesh.drift_sigma_db = 3.0;
  return config;
}

// The campaign script: the same four phases wlmctl simulate runs.
constexpr const char* kPhases[] = {"usage_week", "mr16", "link_windows", "harvest"};

void run_phase(sim::FleetRunner& runner, const std::string& name,
               sim::HarvestMode mode) {
  const SimTime t = SimTime::epoch() + Duration::hours(14);
  if (name == "usage_week") {
    runner.run_usage_week();
  } else if (name == "mr16") {
    runner.run_mr16_interference(t);
  } else if (name == "link_windows") {
    runner.run_link_windows(t);
  } else if (name == "harvest") {
    runner.harvest(mode);
  } else {
    FAIL() << "unknown phase " << name;
  }
}

/// Everything the campaign produces, in comparable (byte-exact) form.
struct Outputs {
  std::string prometheus;
  std::vector<std::uint8_t> store;
  std::string ledger;
  std::vector<telemetry::TraceSpan> trace;

  bool operator==(const Outputs&) const = default;
};

Outputs outputs_of(sim::FleetRunner& runner) {
  Outputs out;
  out.prometheus = telemetry::to_prometheus(runner.metrics());
  ckpt::Buf b;
  ckpt::save(b, test_support::to_store(runner.reports()));
  out.store = b.take();
  out.ledger = runner.loss_ledger().render();
  out.trace = runner.trace();
  return out;
}

Outputs uninterrupted_run(int threads, sim::HarvestMode mode) {
  sim::FleetRunner runner(e2e_config(threads));
  for (const char* phase : kPhases) run_phase(runner, phase, mode);
  return outputs_of(runner);
}

TEST(ResumeE2E, InProcessCutMatrixIsByteIdentical) {
  const Outputs reference = uninterrupted_run(1, sim::HarvestMode::kFinal);

  struct Cell {
    int cut_after;    // checkpoint after this many phases
    int jobs_before;  // --jobs of the killed run
    int jobs_after;   // --jobs of the resuming run
  };
  // Every cut point, crossing the 1/2/8 thread counts both ways.
  const Cell cells[] = {{1, 1, 8}, {1, 8, 2}, {2, 2, 1}, {2, 8, 8}, {3, 1, 2}, {3, 2, 8}};

  for (const auto& cell : cells) {
    SCOPED_TRACE("cut_after=" + std::to_string(cell.cut_after) +
                 " jobs=" + std::to_string(cell.jobs_before) + "->" +
                 std::to_string(cell.jobs_after));
    sim::FleetRunner before(e2e_config(cell.jobs_before));
    ckpt::CampaignProgress progress;
    progress.label = "e2e";
    for (int i = 0; i < cell.cut_after; ++i) {
      run_phase(before, kPhases[i], sim::HarvestMode::kFinal);
      progress.phases_done.emplace_back(kPhases[i]);
    }
    const auto bytes = ckpt::save_campaign(before, progress);

    ckpt::RestoredCampaign restored;
    const auto err = ckpt::restore_campaign(bytes, cell.jobs_after, restored);
    ASSERT_FALSE(err) << err.detail;
    for (std::size_t i = restored.progress.phases_done.size(); i < std::size(kPhases);
         ++i) {
      run_phase(*restored.runner, kPhases[i], sim::HarvestMode::kFinal);
    }
    EXPECT_EQ(outputs_of(*restored.runner), reference);
  }
}

TEST(ResumeE2E, CheckpointBytesIndependentOfJobs) {
  // The checkpoint itself — not just the final outputs — must not encode
  // the thread count, or a resume would only be identical jobs-to-jobs.
  std::vector<std::uint8_t> reference;
  for (const int jobs : {1, 2, 8}) {
    sim::FleetRunner runner(e2e_config(jobs));
    run_phase(runner, "usage_week", sim::HarvestMode::kFinal);
    run_phase(runner, "mr16", sim::HarvestMode::kFinal);
    ckpt::CampaignProgress progress;
    progress.phases_done = {"usage_week", "mr16"};
    auto bytes = ckpt::save_campaign(runner, progress);
    if (reference.empty()) {
      reference = std::move(bytes);
    } else {
      EXPECT_EQ(bytes, reference) << "checkpoint differs at --jobs " << jobs;
    }
  }
}

TEST(ResumeE2E, SigkilledCampaignResumesByteIdentical) {
  const std::string path =
      "resume_e2e_" + std::to_string(::getpid()) + ".wlmckpt";
  std::remove(path.c_str());

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: run half the campaign at --jobs 2, checkpoint, die hard. No
    // gtest, no cleanup — SIGKILL gives destructors no chance to run, so
    // only the checkpoint file survives.
    sim::FleetRunner runner(e2e_config(2));
    ckpt::CampaignProgress progress;
    progress.label = "sigkill";
    for (const char* phase : {"usage_week", "mr16"}) {
      if (std::string(phase) == "usage_week") {
        runner.run_usage_week();
      } else {
        runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
      }
      progress.phases_done.emplace_back(phase);
    }
    if (ckpt::save_campaign_file(path, runner, progress)) _exit(3);
    ::raise(SIGKILL);
    _exit(4);  // unreachable
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying by signal";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Parent: resume from the dead process's checkpoint at a different
  // --jobs and finish; every output must match the never-killed run.
  for (const int jobs : {1, 8}) {
    SCOPED_TRACE("resume jobs=" + std::to_string(jobs));
    ckpt::RestoredCampaign restored;
    const auto err = ckpt::restore_campaign_file(path, jobs, restored);
    ASSERT_FALSE(err) << err.detail;
    EXPECT_EQ(restored.progress.label, "sigkill");
    ASSERT_EQ(restored.progress.phases_done,
              (std::vector<std::string>{"usage_week", "mr16"}));
    for (std::size_t i = restored.progress.phases_done.size(); i < std::size(kPhases);
         ++i) {
      run_phase(*restored.runner, kPhases[i], sim::HarvestMode::kFinal);
    }
    EXPECT_EQ(outputs_of(*restored.runner), uninterrupted_run(1, sim::HarvestMode::kFinal));
  }
  std::remove(path.c_str());
}

TEST(ResumeE2E, MobilitySigkilledCampaignResumesByteIdentical) {
  // The roaming variant of the SIGKILL test: the checkpoint is cut after a
  // full mobility week, so it must carry every walker's motion state and the
  // walk rng mid-stream; the resumed run re-derives the remaining phases and
  // must match a never-killed mobility campaign at any --jobs split.
  const std::string path =
      "resume_mobility_" + std::to_string(::getpid()) + ".wlmckpt";
  std::remove(path.c_str());

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    sim::FleetRunner runner(mobile_e2e_config(2));
    ckpt::CampaignProgress progress;
    progress.label = "sigkill-mobility";
    runner.run_usage_week();
    progress.phases_done.emplace_back("usage_week");
    runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
    progress.phases_done.emplace_back("mr16");
    if (ckpt::save_campaign_file(path, runner, progress)) _exit(3);
    ::raise(SIGKILL);
    _exit(4);  // unreachable
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying by signal";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const Outputs reference = [&] {
    sim::FleetRunner runner(mobile_e2e_config(1));
    for (const char* phase : kPhases) run_phase(runner, phase, sim::HarvestMode::kFinal);
    return outputs_of(runner);
  }();
  for (const int jobs : {1, 8}) {
    SCOPED_TRACE("resume jobs=" + std::to_string(jobs));
    ckpt::RestoredCampaign restored;
    const auto err = ckpt::restore_campaign_file(path, jobs, restored);
    ASSERT_FALSE(err) << err.detail;
    EXPECT_EQ(restored.progress.label, "sigkill-mobility");
    for (std::size_t i = restored.progress.phases_done.size(); i < std::size(kPhases);
         ++i) {
      run_phase(*restored.runner, kPhases[i], sim::HarvestMode::kFinal);
    }
    EXPECT_EQ(outputs_of(*restored.runner), reference);
  }
  std::remove(path.c_str());
}

TEST(ResumeE2E, MobilityCheckpointBytesIndependentOfJobs) {
  // The v5 mobility block serializes per-shard in network order, so the
  // checkpoint bytes — not just the resumed outputs — must be identical
  // whatever worker count produced them.
  std::vector<std::uint8_t> reference;
  for (const int jobs : {1, 2, 8}) {
    sim::FleetRunner runner(mobile_e2e_config(jobs));
    run_phase(runner, "usage_week", sim::HarvestMode::kFinal);
    ckpt::CampaignProgress progress;
    progress.phases_done = {"usage_week"};
    auto bytes = ckpt::save_campaign(runner, progress);
    if (reference.empty()) {
      reference = std::move(bytes);
    } else {
      EXPECT_EQ(bytes, reference) << "mobility checkpoint differs at --jobs " << jobs;
    }
  }
}

TEST(ResumeE2E, MeshSigkilledCampaignResumesByteIdentical) {
  // The mesh variant of the SIGKILL test: the checkpoint cuts mid-campaign
  // between route recomputations, so it must carry the drifted routing
  // tables, the relay busy horizons, and the partition-drop count; the
  // resumed run replays the remaining phases over the same topology and
  // must match a never-killed mesh campaign at any --jobs split.
  const std::string path = "resume_mesh_" + std::to_string(::getpid()) + ".wlmckpt";
  std::remove(path.c_str());

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    sim::FleetRunner runner(mesh_e2e_config(2));
    ckpt::CampaignProgress progress;
    progress.label = "sigkill-mesh";
    runner.run_usage_week();
    progress.phases_done.emplace_back("usage_week");
    runner.run_mr16_interference(SimTime::epoch() + Duration::hours(14));
    progress.phases_done.emplace_back("mr16");
    if (ckpt::save_campaign_file(path, runner, progress)) _exit(3);
    ::raise(SIGKILL);
    _exit(4);  // unreachable
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying by signal";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const Outputs reference = [&] {
    sim::FleetRunner runner(mesh_e2e_config(1));
    for (const char* phase : kPhases) run_phase(runner, phase, sim::HarvestMode::kFinal);
    return outputs_of(runner);
  }();
  for (const int jobs : {1, 8}) {
    SCOPED_TRACE("resume jobs=" + std::to_string(jobs));
    ckpt::RestoredCampaign restored;
    const auto err = ckpt::restore_campaign_file(path, jobs, restored);
    ASSERT_FALSE(err) << err.detail;
    EXPECT_EQ(restored.progress.label, "sigkill-mesh");
    for (std::size_t i = restored.progress.phases_done.size(); i < std::size(kPhases);
         ++i) {
      run_phase(*restored.runner, kPhases[i], sim::HarvestMode::kFinal);
    }
    EXPECT_EQ(outputs_of(*restored.runner), reference);
  }
  std::remove(path.c_str());
}

TEST(ResumeE2E, MeshCheckpointBytesIndependentOfJobs) {
  // The v6 mesh block serializes per-shard in network order, so the
  // checkpoint bytes — not just the resumed outputs — must be identical
  // whatever worker count produced them.
  std::vector<std::uint8_t> reference;
  for (const int jobs : {1, 2, 8}) {
    sim::FleetRunner runner(mesh_e2e_config(jobs));
    run_phase(runner, "usage_week", sim::HarvestMode::kFinal);
    ckpt::CampaignProgress progress;
    progress.phases_done = {"usage_week"};
    auto bytes = ckpt::save_campaign(runner, progress);
    if (reference.empty()) {
      reference = std::move(bytes);
    } else {
      EXPECT_EQ(bytes, reference) << "mesh checkpoint differs at --jobs " << jobs;
    }
  }
}

TEST(ResumeE2E, TornRewriteLeavesLastGoodCheckpoint) {
  // Checkpoint writes are temp+rename. A crash mid-*rewrite* leaves a
  // garbage .tmp next to the previous checkpoint; the previous checkpoint
  // must still restore.
  const std::string path =
      "resume_torn_" + std::to_string(::getpid()) + ".wlmckpt";
  sim::FleetRunner runner(e2e_config(1));
  run_phase(runner, "usage_week", sim::HarvestMode::kFinal);
  ckpt::CampaignProgress progress;
  progress.phases_done = {"usage_week"};
  ASSERT_FALSE(ckpt::save_campaign_file(path, runner, progress));

  std::FILE* torn = std::fopen((path + ".tmp").c_str(), "wb");
  ASSERT_NE(torn, nullptr);
  std::fputs("WLMCKPT\x01 torn half-write", torn);
  std::fclose(torn);

  ckpt::RestoredCampaign restored;
  const auto err = ckpt::restore_campaign_file(path, 2, restored);
  EXPECT_FALSE(err) << err.detail;
  EXPECT_NE(restored.runner, nullptr);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(ResumeE2E, WeekEndHarvestResumesByteIdentical) {
  // kWeekEnd leaves mid-outage APs offline with telemetry in flight — the
  // restore must reproduce that in-flight accounting too, not just kFinal's
  // fully-drained end state.
  const Outputs reference = uninterrupted_run(2, sim::HarvestMode::kWeekEnd);

  sim::FleetRunner before(e2e_config(1));
  run_phase(before, "usage_week", sim::HarvestMode::kWeekEnd);
  ckpt::CampaignProgress progress;
  progress.phases_done = {"usage_week"};
  const auto bytes = ckpt::save_campaign(before, progress);

  ckpt::RestoredCampaign restored;
  const auto err = ckpt::restore_campaign(bytes, 8, restored);
  ASSERT_FALSE(err) << err.detail;
  for (std::size_t i = 1; i < std::size(kPhases); ++i) {
    run_phase(*restored.runner, kPhases[i], sim::HarvestMode::kWeekEnd);
  }
  EXPECT_EQ(outputs_of(*restored.runner), reference);
}

}  // namespace
}  // namespace wlm
