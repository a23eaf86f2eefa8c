import flagposet as fp


def test_layer_sides_drop_isolated_points():
    # m is a rank-1 maximal element: its variable splits off as its own
    # Koszul factor, so it sits on no side; sides are masks over the
    # element positions m = 0, a1 = 1, a2 = 2
    g = fp.GradedPoset(fp.Poset(["m", "a1", "a2"], [("a1", "a2")]))
    assert fp.complexes.layer_sides(g, 0b111) == [(0b010, 0b100)]
