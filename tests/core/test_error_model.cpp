/**
 * @file
 * Unit tests for the trained DRAM error model (Eq. 1) and the
 * conventional workload-unaware baseline.
 */

#include <gtest/gtest.h>

#include "core/error_model.hh"

namespace dfault::core {
namespace {

struct MiniCampaign
{
    sys::Platform platform;
    CharacterizationCampaign campaign;
    std::vector<Measurement> measurements;
    std::vector<workloads::WorkloadConfig> suite;

    MiniCampaign() : campaign(platform, params())
    {
        suite = {{"srad", 8, "srad(par)"},
                 {"kmeans", 8, "kmeans(par)"},
                 {"memcached", 8, "memcached"},
                 {"random", 8, "random"}};
        const std::vector<dram::OperatingPoint> points{
            {1.173, dram::kMinVdd, 50.0},
            {2.283, dram::kMinVdd, 50.0},
            {1.173, dram::kMinVdd, 60.0},
            {2.283, dram::kMinVdd, 60.0},
        };
        measurements = campaign.sweep(suite, points);
    }

    static CharacterizationCampaign::Params
    params()
    {
        CharacterizationCampaign::Params p;
        p.workload.footprintBytes = 2 << 20;
        p.workload.workScale = 0.5;
        p.integrator.epochs = 40;
        p.useThermalLoop = false; // speed; thermal tested elsewhere
        return p;
    }
};

MiniCampaign &
mini()
{
    static MiniCampaign campaign;
    return campaign;
}

TEST(ErrorModel, TrainsAndPredictsPositiveWer)
{
    auto &m = mini();
    const auto model = DramErrorModel::trainWer(
        m.measurements, m.platform.geometry().deviceCount(),
        DramErrorModel::Options{});
    const auto &profile = *m.measurements.front().profile;
    const dram::OperatingPoint op{2.283, dram::kMinVdd, 60.0};
    for (int d = 0; d < 8; ++d)
        EXPECT_GE(model.predictWer(profile, op, d), 0.0);
    EXPECT_GT(model.predictWerAggregate(profile, op), 0.0);
}

TEST(ErrorModel, TrainingPointIsRecalledAccurately)
{
    // KNN with an exact feature match must return the measured value.
    auto &m = mini();
    const auto model = DramErrorModel::trainWer(
        m.measurements, m.platform.geometry().deviceCount(),
        DramErrorModel::Options{});
    const Measurement &sample = m.measurements.back();
    ASSERT_FALSE(sample.run.crashed);
    for (int d = 0; d < 8; ++d) {
        const double measured = sample.run.werForDevice(d);
        if (measured <= 0.0)
            continue;
        const double predicted =
            model.predictWer(*sample.profile, sample.requested, d);
        EXPECT_NEAR(predicted / measured, 1.0, 0.05) << "device " << d;
    }
}

TEST(ErrorModel, PredictionRisesWithTemperature)
{
    auto &m = mini();
    const auto model = DramErrorModel::trainWer(
        m.measurements, m.platform.geometry().deviceCount(),
        DramErrorModel::Options{});
    const auto &profile = *m.measurements.front().profile;
    const double cold = model.predictWerAggregate(
        profile, {2.283, dram::kMinVdd, 50.0});
    const double warm = model.predictWerAggregate(
        profile, {2.283, dram::kMinVdd, 60.0});
    EXPECT_GT(warm, cold);
}

TEST(ErrorModel, ConventionalModelIsWorkloadUnaware)
{
    auto &m = mini();
    const std::vector<dram::OperatingPoint> points{
        {1.173, dram::kMinVdd, 50.0}, {2.283, dram::kMinVdd, 60.0}};
    const ConventionalModel conventional(m.campaign, points);
    // Same operating point -> same prediction, whatever the workload.
    const double a = conventional.predictWer(points[0]);
    const double b = conventional.predictWer(points[0]);
    EXPECT_DOUBLE_EQ(a, b);
    // Interpolates to the nearest characterized point.
    const double near_first =
        conventional.predictWer({1.2, dram::kMinVdd, 51.0});
    EXPECT_DOUBLE_EQ(near_first, a);
    EXPECT_NE(conventional.predictWer(points[1]), a);
}

TEST(ErrorModelDeath, PredictForUnknownDevicePanics)
{
    auto &m = mini();
    const auto wer_model = DramErrorModel::trainWer(
        m.measurements, 8, DramErrorModel::Options{});
    const auto &profile = *m.measurements.front().profile;
    EXPECT_DEATH((void)wer_model.predictWer(profile,
                                            dram::OperatingPoint{}, 9),
                 "out of range");
}

} // namespace
} // namespace dfault::core
