import flagposet as fp


def test_layer_sides_drop_isolated_points():
    # m is a rank-1 maximal element: its variable splits off as its own
    # Koszul factor, so it sits on no side
    g = fp.GradedPoset(fp.Poset(["m", "a1", "a2"], [("a1", "a2")]))
    assert fp.complexes.layer_sides(g, {"m", "a1", "a2"}) \
        == [(("a1",), ("a2",))]
