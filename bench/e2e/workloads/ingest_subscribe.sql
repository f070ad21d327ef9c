# ingest_subscribe's subscriber connection holds both of these. The first
# covers the whole table, so a mutation only changes it when it touches
# the skyline; the second covers only the writer's own rows (oid >=
# 1000000000), so most mutations change it.
SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)
SELECT * FROM car WHERE oid >= 1000000000 PREFERRING LOWEST(price) AND LOWEST(mileage) AND HIGHEST(horsepower)
