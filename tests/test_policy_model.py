"""Tests for the privacy-policy model and builder."""

import pytest

from repro.policy import PolicyBuilder, PolicyError
from repro.policy.model import (
    AggregationRule,
    AttributeRule,
    ModulePolicy,
    PrivacyPolicy,
)


def test_aggregation_rule_normalises_and_validates():
    rule = AggregationRule(aggregation_type="avg", group_by=[" x ", "y", ""], having=" SUM(z)>100 ")
    assert rule.aggregation_type == "AVG"
    assert rule.group_by == ["x", "y"]
    assert rule.having == "SUM(z)>100"
    assert rule.alias_for("z") == "zAVG"
    assert rule.having_expression() is not None
    with pytest.raises(PolicyError):
        AggregationRule(aggregation_type="NOT_AN_AGG")


def test_attribute_rule_requires_name_and_strips_conditions():
    rule = AttributeRule(name="z", conditions=["z < 2", "  "])
    assert rule.conditions == ["z < 2"]
    assert not rule.requires_aggregation
    with pytest.raises(PolicyError):
        AttributeRule(name="  ")


def test_module_policy_lookup_is_case_insensitive():
    module = ModulePolicy(module_id="ActionFilter", attributes={"X": AttributeRule(name="X")})
    assert module.rule_for("x") is not None
    assert module.rule_for("unknown") is None


def test_module_policy_allowed_and_denied():
    module = ModulePolicy(module_id="m")
    module.add_rule(AttributeRule(name="x", allow=True, conditions=["x > y"]))
    module.add_rule(AttributeRule(name="secret", allow=False))
    assert module.allowed_attributes == ["x"]
    assert module.denied_attributes == ["secret"]


def test_privacy_policy_module_lookup():
    policy = PrivacyPolicy(owner="me")
    policy.add_module(ModulePolicy(module_id="ActionFilter"))
    assert policy.has_module("actionfilter")
    assert policy.module("ACTIONFILTER").module_id == "ActionFilter"
    assert policy.module_ids == ["ActionFilter"]
    with pytest.raises(PolicyError):
        policy.module("unknown")


def test_builder_builds_figure4_equivalent(paper_policy):
    built = (
        PolicyBuilder(owner="user")
        .module("ActionFilter")
        .allow("x", condition="x > y")
        .allow("y")
        .allow("z", condition="z < 2", aggregation="AVG", group_by=["x", "y"], having="SUM(z) > 100")
        .allow("t")
        .build()
    )
    module = built.module("ActionFilter")
    reference = paper_policy.module("ActionFilter")
    assert set(module.attributes) == set(reference.attributes)
    z_rule = module.rule_for("z")
    assert z_rule.aggregation.aggregation_type == "AVG"
    assert z_rule.aggregation.group_by == ["x", "y"]


def test_builder_deny_substitute_and_settings():
    policy = (
        PolicyBuilder()
        .module("M")
        .deny("person_id")
        .allow("x")
        .substitute_relation("ubisense", "sensfloor")
        .query_interval(60)
        .max_aggregation_window(300)
        .aggregation_levels(["window", "session"])
        .default_allow(False)
        .build()
    )
    module = policy.module("M")
    assert module.relation_substitutions == {"ubisense": "sensfloor"}
    assert module.stream_settings.query_interval_seconds == 60
    assert module.stream_settings.max_aggregation_window_seconds == 300
    assert module.stream_settings.allowed_aggregation_levels == ["window", "session"]


def test_builder_requires_module_before_rules():
    with pytest.raises(PolicyError):
        PolicyBuilder().allow("x")
    with pytest.raises(PolicyError):
        PolicyBuilder().build()


def test_builder_group_by_without_aggregation_rejected():
    with pytest.raises(PolicyError):
        PolicyBuilder().module("M").allow("z", group_by=["x"])
