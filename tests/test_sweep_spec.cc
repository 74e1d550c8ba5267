/**
 * @file
 * Sweep-spec tests: sweep-file parsing (axis lines over a base
 * config), cartesian expansion order, coordinate labeling, and
 * infeasible-point marking.
 */

#include <gtest/gtest.h>

#include "config/sweep_spec.hh"

using namespace dtsim;

namespace {

TEST(SweepSpec, ParsesBaseAndAxes)
{
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(loadSweepText("workload.kind = web\n"
                              "workload.scale = 0.01\n"
                              "sweep system.stripe_unit_bytes = "
                              "4096, 8192, 16384\n"
                              "sweep system.kind = segm, for\n",
                              "fig.conf", spec, err))
        << err;
    EXPECT_EQ(spec.base.workload, WorkloadKind::Web);
    EXPECT_DOUBLE_EQ(spec.base.scale, 0.01);
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[0].key, "system.stripe_unit_bytes");
    EXPECT_EQ(spec.axes[0].values,
              (std::vector<std::string>{"4096", "8192", "16384"}));
    EXPECT_EQ(spec.axes[1].key, "system.kind");
    EXPECT_EQ(spec.points(), 6u);

    // Axis assignments must not disturb the base config.
    EXPECT_EQ(spec.base.system.kind, SystemKind::Segm);
    EXPECT_EQ(spec.base.system.stripeUnitBytes, 131072u);
}

TEST(SweepSpec, RejectsBadAxes)
{
    const struct
    {
        const char* text;
        const char* expect;
    } cases[] = {
        {"sweep system.kind = segm, for\n"
         "sweep system.kind = nora\n",
         "duplicate sweep axis"},
        {"sweep system.kind =\n", "has no values"},
        {"sweep system.kind = segm, warp\n", "unknown value"},
        {"sweep system.bogus = 1, 2\n", "unknown parameter"},
        {"sweep system.disks = 2, abc\n", "system.disks"},
    };
    for (const auto& c : cases) {
        SweepSpec spec;
        std::string err;
        EXPECT_FALSE(loadSweepText(c.text, "bad.conf", spec, err))
            << c.text;
        EXPECT_NE(err.find("bad.conf:"), std::string::npos) << err;
        EXPECT_NE(err.find(c.expect), std::string::npos) << err;
    }
}

TEST(SweepSpec, ExpandsFirstAxisSlowest)
{
    SweepSpec spec;
    spec.axes.push_back({"system.stripe_unit_bytes",
                         {"4096", "8192"}});
    spec.axes.push_back({"system.kind", {"segm", "for"}});

    std::string err;
    const std::vector<SweepPoint> points = expandSweep(spec, err);
    ASSERT_EQ(points.size(), 4u) << err;

    const std::pair<std::uint64_t, SystemKind> want[] = {
        {4096, SystemKind::Segm},
        {4096, SystemKind::FOR},
        {8192, SystemKind::Segm},
        {8192, SystemKind::FOR},
    };
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(points[i].cfg.system.stripeUnitBytes,
                  want[i].first);
        EXPECT_EQ(points[i].cfg.system.kind, want[i].second);
        // Coordinates record the axis values in axis order.
        ASSERT_EQ(points[i].coords.size(), 2u);
        EXPECT_EQ(points[i].coords[0].first,
                  "system.stripe_unit_bytes");
        EXPECT_EQ(points[i].coords[1].first, "system.kind");
        EXPECT_TRUE(points[i].feasible);
    }
    EXPECT_EQ(points[1].coords[1].second, "for");
}

TEST(SweepSpec, NoAxesYieldsTheBasePoint)
{
    SweepSpec spec;
    spec.base.system.disks = 4;
    std::string err;
    const std::vector<SweepPoint> points = expandSweep(spec, err);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].cfg.system.disks, 4u);
    EXPECT_TRUE(points[0].coords.empty());
}

TEST(SweepSpec, MarksInfeasiblePoints)
{
    // The fig08 grid shape: under FOR, an HDC budget that still fits
    // under Segm exceeds the controller cache once the layout bitmap
    // is charged. The point must be marked, not dropped or fatal.
    SweepSpec spec;
    const std::uint64_t usable =
        spec.base.system.disk.usableCacheBytes();
    const std::uint64_t bitmap = spec.base.system.disk.bitmapBytes();
    const std::uint64_t too_big_for_for =
        ((usable - bitmap) / 4096) * 4096 + 4096;
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    spec.axes.push_back({"system.hdc_bytes_per_disk",
                         {"0", std::to_string(too_big_for_for)}});

    std::string err;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    ASSERT_EQ(points.size(), 4u) << err;
    EXPECT_TRUE(points[0].feasible);  // segm, 0
    EXPECT_TRUE(points[1].feasible);  // segm, big
    EXPECT_TRUE(points[2].feasible);  // for, 0
    EXPECT_FALSE(points[3].feasible); // for, big
    EXPECT_NE(points[3].whyNot.find("FOR layout bitmap"),
              std::string::npos)
        << points[3].whyNot;
}

TEST(SweepSpec, ExpansionErrorsOnHandBuiltBadAxis)
{
    SweepSpec spec;
    spec.axes.push_back({"system.no_such", {"1"}});
    std::string err;
    EXPECT_TRUE(expandSweep(spec, err).empty());
    EXPECT_NE(err.find("unknown parameter"), std::string::npos);
}

TEST(SweepSpec, ExpansionRejectsARepeatedAxisKey)
{
    // A file's system.kind axis plus `dtsim_cli --system all`'s own:
    // each point would carry two kind labels while only the later one
    // runs.
    SweepSpec spec;
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    spec.axes.push_back({"hdc.budget_bytes_per_disk", {"0", "2097152"}});
    spec.axes.push_back({"system.kind", {"segm", "block", "nora", "for"}});
    std::string err;
    EXPECT_TRUE(expandSweep(spec, err).empty());
    EXPECT_NE(err.find("duplicate sweep axis 'system.kind'"),
              std::string::npos)
        << err;
}

TEST(SweepSpec, RejectsAnAxisOverAnAliasedField)
{
    // A deprecated system.hdc_* key sets the same field as its hdc.*
    // key: two axes over the pair would label each point with two
    // values while only the later one runs.
    const std::pair<SweepAxis, SweepAxis> pairs[] = {
        {{"system.hdc_bytes_per_disk", {"0", "2097152"}},
         {"hdc.budget_bytes_per_disk", {"0", "1048576"}}},
        {{"system.hdc_policy", {"oracle", "off"}},
         {"hdc.policy", {"online"}}},
    };
    for (const auto& [first, second] : pairs) {
        const std::string want = "duplicate sweep axis '" + second.key +
                                 "' (sets the same field as '" +
                                 first.key + "')";

        std::string text;
        for (const SweepAxis* a : {&first, &second}) {
            text += "sweep " + a->key + " = ";
            for (const std::string& v : a->values)
                text += v + ",";
            text += "\n";
        }
        SweepSpec loaded;
        std::string err;
        EXPECT_FALSE(loadSweepText(text, "alias.conf", loaded, err))
            << text;
        EXPECT_NE(err.find("alias.conf:2: " + want), std::string::npos)
            << err;

        SweepSpec built;
        built.axes = {first, second};
        err.clear();
        EXPECT_TRUE(expandSweep(built, err).empty()) << first.key;
        EXPECT_NE(err.find(want), std::string::npos) << err;
    }
}

} // namespace
