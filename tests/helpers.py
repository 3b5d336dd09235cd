"""Row builder shared by the tests."""


def row(t, x, y, vx, vy, yaw_rate=float("nan")):
    """One ``Trajectory.points`` row: (t, x, y, vx, vy, yaw_rate)."""
    return (t, x, y, vx, vy, yaw_rate)
